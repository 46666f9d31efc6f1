"""Cost accounting and the campaign runner: bound sweeps, tables, benchmarks, CSV.

``accounting`` turns the Fisher blocks over a list of horizons into g0,
gamma and the bound; ``g_i`` and ``cost_product_bound`` are its
one-horizon case.  A campaign is a grid (alpha) x (protocol, T).  One
pass accounts every grid point, over the horizons its estimator samples,
into a BenchResult row; the bounds, diag, gi and bench tables are that
pass plus their own columns.  Every benchmark row carries enough fields
to recompute R = T * t_total * mse / bound; a failure at one grid point
is recorded in that row's error column and never suppresses the others.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from functools import partial
from numbers import Real

import numpy as np

from ._version import __version__
from .bounds import diag_ratio as _diag_ratio
from .estimators import (
    _wrap,
    estimate_csqpe,
    estimate_curvefit_qft,
    estimate_qcels_ml,
    estimate_qmegs,
)
from .errors import NoLinearCostForm
from .fim import f_i_max, total_fim
from .schedules import ProtocolKind, gamma, realize, t_total
from .simulate import sample_ht, sample_qft, write_ht_csv, write_qft_csv
from .spectrum import _PHASE_FAMILIES, make_spectrum

_ROW_ERRORS = (ArithmeticError, ValueError, RuntimeError, KeyError)


def _integer(name, value):
    """A config count as an int; a fraction is rejected, never truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass
class ProtocolSpec:
    kind: ProtocolKind
    T: list
    N_t: int = 1
    N_s: int = 1
    sparsity: int = 4

    def __post_init__(self):
        self.kind = ProtocolKind(self.kind)

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        kind = ProtocolKind(d.pop("kind"))
        T = d.pop("T")
        if not isinstance(T, (list, tuple)):
            T = [T]
        T = [_integer("T", v) for v in T]
        if not T or any(v <= 0 for v in T):
            raise ValueError("every protocol needs a positive T list")
        spec = cls(kind, T, **{k: _integer(k, v) for k, v in d.items()})
        if spec.N_t < 1 or spec.N_s < 1 or spec.sparsity < 1:
            raise ValueError("N_t, N_s and sparsity must be positive")
        if kind == ProtocolKind.QFT_QPE:
            for v in spec.T:
                if ((v + 1) & v) != 0:
                    raise ValueError("transform-readout entries need T = 2^n - 1")
            if spec.N_t != 1:
                raise ValueError("transform readout uses N_t = 1")
        return spec


@dataclass
class CampaignConfig:
    spectrum: str
    L: int
    alphas: list
    protocols: list
    trials: int = 10
    seed: int = 0
    target: int = 0

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        protocols = [ProtocolSpec.from_dict(p) for p in d.pop("protocols", [])]
        for name in ("L", "trials", "seed", "target"):
            if name in d:
                d[name] = _integer(name, d[name])
        cfg = cls(protocols=protocols, **d)
        if cfg.spectrum not in _PHASE_FAMILIES:
            raise ValueError(f"unknown spectrum family {cfg.spectrum!r}")
        if cfg.L < 1:
            raise ValueError("L must be at least 1")
        if not isinstance(cfg.alphas, list) or not cfg.alphas or any(
            isinstance(a, bool) or not isinstance(a, Real) or not 0.0 < a < 1.0
            for a in cfg.alphas
        ):
            raise ValueError("alphas must be a nonempty list of numbers inside (0, 1)")
        if not cfg.protocols:
            raise ValueError("at least one protocol is required")
        if cfg.trials < 2:
            raise ValueError("trials must be at least 2")
        if cfg.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0 <= cfg.target < cfg.L:
            raise ValueError("target mode label out of range")
        return cfg

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


@dataclass
class BenchResult:
    spectrum: str
    L: int
    alpha: float
    protocol: str
    T: float
    N_t: int
    N_s: int
    trials: int
    c0: float = np.nan
    g0: float = np.nan
    gamma: float = np.nan
    bound: float = np.nan
    t_total: float = np.nan
    f0_max: float = np.nan
    diag_ratio: float = np.nan
    mse: float = np.nan
    mse_se: float = np.nan
    ratio_r: float = np.nan
    error: str = ""


# the BenchResult fields each table subcommand writes, in CSV order;
# bench writes every field
COLUMNS = {
    "bounds": (
        "spectrum", "L", "alpha", "c0", "protocol", "T", "N_t",
        "g0", "gamma", "bound", "error",
    ),
    "diag": ("spectrum", "L", "alpha", "protocol", "T", "N_t", "diag_ratio", "error"),
    "gi": ("spectrum", "L", "alpha", "c0", "protocol", "T", "N_t", "g0", "error"),
}


def qcels_levels(T, N_t):
    """Doubling horizon ladder ending at T, alias-free at the first level."""
    m = 1
    while T / 2 ** (m - 1) > N_t:
        m += 1
    return [T / 2 ** (m - j) for j in range(1, m + 1)]


def accounting(spectrum, kind, horizons, N_t, N_s, label=0):
    """(g0, gamma, bound, t_total, fim) of N_t times x N_s shots per horizon.

    Blocks and costs add up over ``horizons``; with T = horizons[-1] and
    N = len(horizons) N_t N_s, g0 = I_ii / (N T^2) and the bound gamma / g0
    floors T * t_total * MSE.  RPE has no linear cost form.
    """
    kind = ProtocolKind(kind)
    if kind == ProtocolKind.RPE:
        raise NoLinearCostForm("RPE has no linear cost form; use rpe_fim_bounds")
    fims = [total_fim(spectrum, kind, h, N_t, N_s) for h in horizons]
    fim = sum(fims[1:], fims[0])
    ttl = sum(t_total(kind, h, N_t, N_s) for h in horizons)
    T, N = float(horizons[-1]), len(horizons) * N_t * N_s
    # a ladder's gamma is its cost per shot per T; on one horizon that
    # quotient is schedules.gamma only to the last digit (5821 of 22344
    # qmegs/csqpe points differ), so one horizon keeps the closed form
    if len(horizons) > 1:
        gam = ttl / (N * T)
    else:
        gam = 1.0 if kind == ProtocolKind.QFT_QPE else gamma(kind, T, N_t)
    pos = fim.index_of(label)
    g0 = float(fim.theta_theta[pos, pos] / (N * T**2))
    return g0, gam, gam / g0, ttl, fim


def g_i(spectrum, kind, T, N_t, N_s, label=0):
    """Normalized information I_ii / (N_t N_s T^2) at one horizon T."""
    return accounting(spectrum, kind, [T], N_t, N_s, label)[0]


def cost_product_bound(spectrum, kind, T, N_t, N_s, label=0):
    """Floor gamma / g_i on T * t_total * MSE at one horizon T (QFT: gamma 1)."""
    return accounting(spectrum, kind, [T], N_t, N_s, label)[2]


def _accounting(spectrum, pspec, T, target):
    """Accounting over the horizons the point's estimator samples."""
    kind = pspec.kind
    horizons = qcels_levels(T, pspec.N_t) if kind == ProtocolKind.QCELS else [T]
    return accounting(spectrum, kind, horizons, pspec.N_t, pspec.N_s, target)


def _grid(config):
    """Grid points (alpha, protocol spec, T) in seed-index order."""
    return [(a, p, T) for a in config.alphas for p in config.protocols for T in p.T]


def _pass(config, extra=None):
    """One accounted BenchResult row per grid point.

    Each row gets c0, g0, gamma, bound and t_total; ``extra(row, spectrum,
    fim, point_idx, pspec, T)`` may fill more columns.  Both run inside
    one try, so a failure lands in that point's error column.  RPE is
    refused: it has no linear cost form, and its bound is rpe_fim_bounds.
    """
    if any(p.kind == ProtocolKind.RPE for p in config.protocols):
        raise ValueError("RPE has no linear cost form; bound it with rpe_fim_bounds")
    rows = []
    for idx, (alpha, pspec, T) in enumerate(_grid(config)):
        row = BenchResult(
            config.spectrum, config.L, alpha, pspec.kind.value,
            float(T), pspec.N_t, pspec.N_s, config.trials,
        )
        try:
            s = make_spectrum(config.spectrum, config.L, alpha)
            row.c0 = s.overlap(config.target)
            row.g0, row.gamma, row.bound, row.t_total, fim = _accounting(
                s, pspec, T, config.target
            )
            if extra is not None:
                extra(row, s, fim, idx, pspec, T)
        except _ROW_ERRORS as exc:
            row.error = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def _one_trial(spectrum, pspec, T, base_seed, point_idx, trial):
    ss = np.random.SeedSequence((base_seed, point_idx, trial))
    s_sched, s_data = ss.spawn(2)
    kind = pspec.kind
    if kind in (ProtocolKind.QMEGS, ProtocolKind.CSQPE):
        sched = realize(kind, T, pspec.N_t, seed=s_sched)
        data = sample_ht(spectrum, sched, pspec.N_s, seed=s_data)
        if kind == ProtocolKind.QMEGS:
            return estimate_qmegs(data, T).theta_hat
        return estimate_csqpe(data, pspec.sparsity).theta_hat
    if kind == ProtocolKind.QCELS:
        levels = qcels_levels(T, pspec.N_t)
        datasets = [
            sample_ht(spectrum, realize(kind, h, pspec.N_t), pspec.N_s, seed=sd)
            for h, sd in zip(levels, s_data.spawn(len(levels)))
        ]
        return estimate_qcels_ml(datasets).theta_hat
    if kind == ProtocolKind.QFT_QPE:
        n = int(np.log2(T + 1))
        data = sample_qft(spectrum, n, pspec.N_s, seed=s_data)
        return estimate_curvefit_qft(data).theta_hat
    raise ValueError(f"{kind.value} has no estimator")


def _bench_point(config, pool, row, spectrum, fim, point_idx, pspec, T):
    """Add f0_max, diag_ratio and the scored trials to an accounted row."""
    row.f0_max = f_i_max(spectrum, config.target)
    row.diag_ratio = _diag_ratio(fim, config.target)

    def run(trial):
        return _one_trial(spectrum, pspec, T, config.seed, point_idx, trial)

    hats = list((map if pool is None else pool.map)(run, range(config.trials)))
    sq = _wrap(np.array(hats) - spectrum.phase(config.target)) ** 2
    row.mse = float(sq.mean())
    row.mse_se = float(sq.std(ddof=1) / np.sqrt(config.trials))
    row.ratio_r = float(T * row.t_total * row.mse / row.bound)


def run_campaign(config, threads=1):
    """Sample, estimate and score every grid point of the campaign."""
    executor = ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext()
    with executor as pool:
        return _pass(config, partial(_bench_point, config, pool))


def sweep_bounds(config):
    """Tabulate gamma/g0 over the alpha sweep; locate the QFT/HT crossover.

    Uses each protocol's largest T.  Returns (rows, crossover_c0); the
    crossover is linearly interpolated in log-bound vs c0 and is None
    when either family is absent or no sign change occurs.
    """
    largest = replace(
        config, protocols=[replace(p, T=[max(p.T)]) for p in config.protocols]
    )
    rows = _pass(largest)
    qft, best_ht = {}, {}
    for row in rows:
        if row.error:
            continue
        if row.protocol == ProtocolKind.QFT_QPE.value:
            qft[row.c0] = row.bound
        else:
            best_ht[row.c0] = min(best_ht.get(row.c0, np.inf), row.bound)
    c0s = np.array(sorted(qft.keys() & best_ht.keys()))
    crossover = None
    if len(c0s) >= 2:
        diff = np.array([np.log(qft[c] / best_ht[c]) for c in c0s])
        for a, b, da, db in zip(c0s, c0s[1:], diff, diff[1:]):
            if da == 0.0:
                crossover = float(a)
            elif da * db < 0.0:
                crossover = float(a + (b - a) * da / (da - db))
        if diff[-1] == 0.0:
            crossover = float(c0s[-1])
    return rows, crossover


def check_diag(config):
    """diag_ratio of the campaign Fisher matrix at every grid point."""

    def add_ratio(row, spectrum, fim, *point):
        row.diag_ratio = _diag_ratio(fim, config.target)

    return _pass(config, add_ratio)


def gi_sweep(config):
    """Normalized information g0 across the alpha and T grids."""
    return _pass(config)


def _format(value):
    # plain-float repr round-trips exactly and never prints a numpy wrapper
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_rows_csv(rows, path, seed, columns=None):
    """Dataclass rows to CSV under the versioned header comment.

    ``columns`` picks and orders the fields written (see COLUMNS); by
    default every field of the row dataclass is written.
    """
    if not rows:
        raise ValueError("nothing to write")
    names = columns or [f.name for f in fields(rows[0])]
    lines = [f"# qpe-bounds v{__version__} seed={seed}"]
    lines.append(",".join(names))
    for row in rows:
        lines.append(",".join(_format(getattr(row, n)) for n in names))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_samples(config, out_path):
    """Write raw sample CSVs, one file per grid point; returns the paths.

    Trials are seeded as in ``_one_trial``, so the files hold the draws
    that ``run_campaign`` estimates, except that a QCELS file holds one
    arithmetic level at T rather than the ``qcels_levels`` ladder.
    """
    stem, ext = os.path.splitext(out_path)
    ext = ext or ".csv"
    header = f"# qpe-bounds v{__version__} seed={config.seed}"
    written = []
    points = _grid(config)
    for idx, (alpha, pspec, T) in enumerate(points):
        s = make_spectrum(config.spectrum, config.L, alpha)
        path = (
            out_path
            if len(points) == 1
            else f"{stem}_{pspec.kind.value}_a{alpha}_T{T}{ext}"
        )
        qft = pspec.kind == ProtocolKind.QFT_QPE
        samples = []
        for k in range(config.trials):
            s_sched, s_data = np.random.SeedSequence((config.seed, idx, k)).spawn(2)
            if qft:
                samples.append(sample_qft(s, int(np.log2(T + 1)), pspec.N_s, seed=s_data))
            else:
                sched = realize(pspec.kind, T, pspec.N_t, seed=s_sched)
                samples.append(sample_ht(s, sched, pspec.N_s, seed=s_data))
        (write_qft_csv if qft else write_ht_csv)(samples, path, header)
        written.append(path)
    return written
