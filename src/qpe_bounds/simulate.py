"""Sampling measurement outcomes from the closed-form distributions.

No state vectors are involved, and both samplers draw counts, never
single shots: a register trial is one multinomial over the 2^n bins of
the kernel mixture, a Hadamard-test trial a binomial pair at every time
at the probabilities of ``fim._ht_law``.  ``write_csv`` writes every CSV
of the package, tables and samples alike; the sample readers share one
row reader, round-trip multi-trial datasets and refuse what no sampler
writes.
"""

import csv
from dataclasses import dataclass

import numpy as np

# dirichlet is no longer called here; the per-layer trace in
# perfbench/tracing.py wraps it by name in this module
from .dirichlet import dirichlet, register_chunks  # noqa: F401
from .errors import NormalizationFailure
from .fim import _ht_outcomes
from .schedules import _bins, _count, _width

_QFT_COLUMNS = ("trial", "y")
_HT_COLUMNS = ("trial", "t", "n_re0", "n_re1", "n_im0", "n_im1")


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
    """Draw the histogram of N_s transform-readout shots as one multinomial.

    The multinomial is walked once along ``register_chunks``, so memory
    stays flat up to the widest register.  Each chunk takes a binomial
    share of the shots not yet placed, at its mass over the mass not yet
    walked, and spreads it over its bins by one multinomial: the
    conditional-binomial method (Devroye, Non-Uniform Random Variate
    Generation, 1986).  The last chunk takes every shot left, so a
    register of one chunk is exactly ``multinomial(N_s, p / p.sum())``.
    A chunk with no shots left or no mass draws nothing; shots left past
    the last chunk with mass, which a total rounding below 1 may leave,
    fall in the last bin.  ``outcomes`` lists the shots sorted by bin.
    """
    chunks = register_chunks(n, spectrum.phases)
    N_s = _count("N_s", N_s)
    rng = np.random.default_rng(seed)
    M = 2 ** int(n)
    pieces, left, total, lo = [], N_s, 0.0, 0
    for K in chunks:
        p = spectrum.overlaps @ K
        mass = float(p.sum())
        if left and mass > 0.0:
            rest = 1.0 - total
            if lo + p.size == M:
                share = left
            else:
                share = int(rng.binomial(left, mass / rest if mass < rest else 1.0))
            pieces.append(np.repeat(np.arange(lo, lo + p.size), rng.multinomial(share, p / mass)))
            left -= share
        total += mass
        lo += p.size
    if abs(total - 1.0) > 1e-9:
        raise NormalizationFailure(f"probabilities sum to {total!r}")
    pieces.append(np.full(left, M - 1))
    return QftSample(int(n), np.concatenate(pieces).astype(np.int64, copy=False))


def _ht_sample(spectrum, schedule, N_s, counts):
    """The HtSample whose outcome-0 counters are ``counts(N_s, p)``, real part first.

    p is ``fim._ht_law``'s, capped at 1: overlaps may sum to a rounding above 1.
    """
    N_s = _count("N_s", N_s)
    t = schedule.times
    n_re0, n_im0 = (counts(N_s, p) for p in np.minimum(_ht_outcomes(spectrum, t), 1.0))
    return HtSample(t.copy(), n_re0, N_s - n_re0, n_im0, N_s - n_im0, float(N_s))


def sample_ht(spectrum, schedule, N_s, seed=0):
    """Binomial counts of the Hadamard-test pair at every scheduled time."""
    rng = np.random.default_rng(seed)
    return _ht_sample(spectrum, schedule, N_s, lambda N, p: rng.binomial(N, p).astype(float))


def sample_ht_exact(spectrum, schedule, N_s=1):
    """Noise-free variant: counters set to their exact expectations."""
    return _ht_sample(spectrum, schedule, N_s, lambda N, p: N * p)


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


def _read_trials(path, header, dtype):
    """(trial, values) in trial order: a trial's rows as one dtype array, trial column dropped.

    ``header`` names the file's columns, trial first; \\r\\n line ends
    are read too.  ValueError naming the trial and the line for a row
    with another column count or a cell that is not a number of the dtype.
    """
    trials, numbers = {}, []

    def data(fh):
        for number, line in enumerate(fh, 1):
            if not line.startswith("#"):
                numbers.append(number)
                yield line

    with open(path, newline="") as fh:
        reader = csv.reader(data(fh))
        rows = [(numbers[reader.line_num - 1], r) for r in reader if r][1:]
    for line, (trial, *values) in rows:
        where = f"trial {trial}, line {line}"
        if len(values) + 1 != len(header):
            raise ValueError(f"{where} has {len(values) + 1} columns, not {len(header)}")
        try:
            key = int(trial)
        except ValueError:
            raise ValueError(f"line {line} has the trial {trial!r}, not a whole number") from None
        trials.setdefault(key, []).append((line, values))
    out = []
    for trial, rows in sorted(trials.items()):
        try:
            out.append((trial, np.array([values for _, values in rows], dtype=dtype)))
        except ValueError:
            for line, values in rows:
                for cell in values:
                    try:
                        np.array(cell, dtype=dtype)
                    except ValueError:
                        number = "a whole number" if np.dtype(dtype).kind == "i" else "a number"
                        raise ValueError(
                            f"trial {trial}, line {line} has {cell!r}, not {number}"
                        ) from None
            raise
    return out


def write_qft_csv(samples, path, header_comment=None):
    """Rows (trial, y); one trial per QftSample."""
    blocks = (
        [np.full(s.outcomes.size, k), np.asarray(s.outcomes, dtype=np.int64)]
        for k, s in enumerate(samples)
    )
    write_csv(path, _QFT_COLUMNS, blocks, header_comment)


def read_qft_csv(path, n):
    """Inverse of write_qft_csv; n is not stored in the file.

    ValueError for a bin outside [0, 2^n), which no sampler writes.
    """
    n = _width(n)
    out = []
    for trial, rows in _read_trials(path, _QFT_COLUMNS, np.int64):
        out.append(QftSample(n, _bins(rows[:, 0], n, f"trial {trial}")))
    return out


def write_ht_csv(samples, path, header_comment=None):
    """Rows (trial, t, n_re0, n_re1, n_im0, n_im1)."""
    blocks = (
        [np.full(s.times.size, k),
         *np.array((s.times, s.n_re0, s.n_re1, s.n_im0, s.n_im1), dtype=float)]
        for k, s in enumerate(samples)
    )
    write_csv(path, _HT_COLUMNS, blocks, header_comment)


def read_ht_csv(path):
    """Inverse of write_ht_csv; a trial's N_s is the sum of its first row's pair.

    ValueError for what no sampler writes: a negative counter, or a row
    whose real or imaginary pair does not sum to its trial's N_s.
    """
    out = []
    for trial, rec in _read_trials(path, _HT_COLUMNS, float):
        N_s = float(rec[0, 1] + rec[0, 2])
        if np.any(rec[:, 1:] < 0.0):
            raise ValueError(f"trial {trial} has a negative counter")
        if not np.all((rec[:, 1] + rec[:, 2] == N_s) & (rec[:, 3] + rec[:, 4] == N_s)):
            raise ValueError(f"trial {trial} has a counter pair that does not sum to N_s={N_s!r}")
        out.append(HtSample(rec[:, 0], rec[:, 1], rec[:, 2], rec[:, 3], rec[:, 4], N_s))
    return out
