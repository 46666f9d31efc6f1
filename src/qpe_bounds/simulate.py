"""Sampling measurement outcomes from the closed-form distributions.

No state vectors are involved: transform-readout outcomes follow the
kernel mixture over 2^n bins, Hadamard-test outcomes are Bernoulli pairs.
``write_csv`` writes every CSV of the package, tables and samples alike;
the sample readers share one row reader and round-trip multi-trial datasets.
"""

import csv
from dataclasses import dataclass

import numpy as np

# dirichlet is no longer called here; the per-layer trace in
# perfbench/tracing.py wraps it by name in this module
from .dirichlet import dirichlet, register_chunks  # noqa: F401
from .errors import NormalizationFailure
from .fim import ht_expectations
from .schedules import _count


@dataclass
class QftSample:
    n: int
    outcomes: np.ndarray  # integer bin indices, one per shot

    @property
    def N_s(self):
        return self.outcomes.size


@dataclass
class HtSample:
    times: np.ndarray
    n_re0: np.ndarray
    n_re1: np.ndarray
    n_im0: np.ndarray
    n_im1: np.ndarray
    N_s: float

    @property
    def z_hat(self):
        """Per-time estimate of C(t) + i S(t) from the four counters."""
        re = (self.n_re0 - self.n_re1) / self.N_s
        im = (self.n_im0 - self.n_im1) / self.N_s
        return re + 1j * im


def qft_probabilities(spectrum, n):
    """Outcome distribution over the 2^n bins, checked to sum to one."""
    p = np.concatenate([spectrum.overlaps @ K for K in register_chunks(n, spectrum.phases)])
    if abs(p.sum() - 1.0) > 1e-9:
        raise NormalizationFailure(f"probabilities sum to {p.sum()!r}")
    return p


def sample_qft(spectrum, n, N_s, seed=0):
    """Draw N_s transform-readout outcomes by inverse CDF.

    The CDF is walked once along ``register_chunks``, so memory stays flat
    up to the widest register.  Each chunk's first probability carries the
    running total, so the chunk CDFs are exactly the global cumulative sum,
    and a draw's bin is the number of its entries at or below the draw,
    counted chunk by chunk.  Draws at or above the final total, which
    rounding may leave just below 1, fall in the last bin.
    """
    chunks = register_chunks(n, spectrum.phases)
    N_s = _count("N_s", N_s)
    u = np.random.default_rng(seed).random(N_s)
    outcomes = np.zeros(N_s, dtype=np.int64)
    total = 0.0
    for K in chunks:
        p = spectrum.overlaps @ K
        p[0] += total
        cdf = np.cumsum(p)
        outcomes += np.searchsorted(cdf, u, side="right")
        total = float(cdf[-1])
    if abs(total - 1.0) > 1e-9:
        raise NormalizationFailure(f"probabilities sum to {total!r}")
    np.minimum(outcomes, 2 ** int(n) - 1, out=outcomes)
    return QftSample(int(n), outcomes)


def sample_ht(spectrum, schedule, N_s, seed=0):
    """Binomial counts of the Hadamard-test pair at every scheduled time."""
    N_s = _count("N_s", N_s)
    t = schedule.times
    C, S = ht_expectations(spectrum, t)
    rng = np.random.default_rng(seed)
    n_re0 = rng.binomial(N_s, (1.0 + C) / 2.0).astype(float)
    n_im0 = rng.binomial(N_s, (1.0 + S) / 2.0).astype(float)
    return HtSample(t.copy(), n_re0, N_s - n_re0, n_im0, N_s - n_im0, float(N_s))


def sample_ht_exact(spectrum, schedule, N_s=1):
    """Noise-free variant: counters set to their exact expectations."""
    t = schedule.times
    C, S = ht_expectations(spectrum, t)
    n_re0 = N_s * (1.0 + C) / 2.0
    n_im0 = N_s * (1.0 + S) / 2.0
    return HtSample(t.copy(), n_re0, N_s - n_re0, n_im0, N_s - n_im0, float(N_s))


def _format(value):
    # plain-float repr round-trips exactly and never prints a numpy wrapper;
    # text holding a comma, quote or line break is quoted, as csv does
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(column):
    # a numeric array gets the text _format gives its values, in bulk
    if isinstance(column, np.ndarray):
        return map(repr if column.dtype.kind == "f" else str, column.tolist())
    return map(_format, column)


def write_csv(path, header, blocks, comment=None):
    """An optional # comment line, the header, then the rows, each line ending in \\n.

    Each of ``blocks`` is a list of equal-length columns, one value a row.
    """
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(comment.rstrip("\n") + "\n")
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            # the closing "" ends the last row and leaves an empty block unwritten
            fh.write("\n".join([*map(",".join, zip(*map(_cells, columns))), ""]))


def _read_trials(path):
    """Each trial's rows under the header, trial column dropped; \\r\\n line ends read too."""
    trials = {}
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#")) if r]
    for trial, *values in rows[1:]:
        trials.setdefault(int(trial), []).append(values)
    return [trials[k] for k in sorted(trials)]


def write_qft_csv(samples, path, header_comment=None):
    """Rows (trial, y); one trial per QftSample."""
    blocks = (
        [np.full(s.outcomes.size, k), np.asarray(s.outcomes, dtype=np.int64)]
        for k, s in enumerate(samples)
    )
    write_csv(path, ["trial", "y"], blocks, header_comment)


def read_qft_csv(path, n):
    """Inverse of write_qft_csv; n is not stored in the file."""
    return [QftSample(n, np.array(rows, dtype=np.int64)[:, 0]) for rows in _read_trials(path)]


def write_ht_csv(samples, path, header_comment=None):
    """Rows (trial, t, n_re0, n_re1, n_im0, n_im1)."""
    blocks = (
        [np.full(s.times.size, k),
         *np.array((s.times, s.n_re0, s.n_re1, s.n_im0, s.n_im1), dtype=float)]
        for k, s in enumerate(samples)
    )
    write_csv(path, ["trial", "t", "n_re0", "n_re1", "n_im0", "n_im1"], blocks, header_comment)


def read_ht_csv(path):
    out = []
    for rows in _read_trials(path):
        rec = np.array(rows, dtype=float)
        N_s = float(rec[0, 1] + rec[0, 2])
        out.append(HtSample(rec[:, 0], rec[:, 1], rec[:, 2], rec[:, 3], rec[:, 4], N_s))
    return out
