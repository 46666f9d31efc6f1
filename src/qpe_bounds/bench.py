"""Campaign configs, checked when built, and the runner: bound sweeps, tables, benchmarks.

``accounting`` turns the Fisher blocks over a list of horizons into the
floor T * t_total / I_ii on T * t_total * MSE, for every protocol;
``g_i`` and ``cost_product_bound`` are its one-horizon case.  A campaign
is a grid (alpha) x (protocol, T).  One pass accounts every grid point,
over the horizons its estimator samples, into a BenchResult row; the
bounds, diag, gi and bench tables are that pass plus their own columns.
Every benchmark row carries enough fields to recompute R = T * t_total *
mse / bound = mse * I_ii; a failure at one grid point is recorded in
that row's error column and never suppresses the others.  Trials run
serially, each drawn by ``_draw`` from its own (seed, point, trial)
seed; ``emit_samples`` writes the same draws, through ``simulate.write_csv``.
"""

import os
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
# total_fim is no longer called here; the per-layer trace in
# perfbench/tracing.py wraps it by name in this module
from .fim import _one, f_i_max, total_fim, total_fims  # noqa: F401
from .schedules import ProtocolKind, _count, _point, _whole, realize, register_width, t_total
from .simulate import sample_ht, sample_qft, write_csv, write_ht_csv, write_qft_csv
from .spectrum import _PHASE_FAMILIES, make_spectrum

_ROW_ERRORS = (ArithmeticError, ValueError, RuntimeError, KeyError, MemoryError)


@dataclass
class ProtocolSpec:
    """One protocol of a campaign, checked when built; a scalar T becomes [T]."""

    kind: ProtocolKind
    T: list
    N_t: int = 1
    N_s: int = 1
    sparsity: int = 4

    def __post_init__(self):
        T = self.T if isinstance(self.T, (list, tuple)) else [self.T]
        if not T:
            raise ValueError("every protocol needs a nonempty T list")
        self.T = [_count("T", v) for v in T]  # whole for every kind, unlike the library
        for v in self.T:
            self.kind, _, self.N_t, self.N_s = _point(self.kind, v, self.N_t, self.N_s)
        self.sparsity = _count("sparsity", self.sparsity)


@dataclass
class CampaignConfig:
    """A campaign, checked when built by any path; dict protocols become ProtocolSpecs."""

    spectrum: str
    L: int
    alphas: list
    protocols: list
    trials: int = 10
    seed: int = 0
    target: int = 0

    def __post_init__(self):
        self.protocols = [
            p if isinstance(p, ProtocolSpec) else ProtocolSpec(**p) for p in self.protocols
        ]
        self.L = _count("L", self.L)
        for name in ("trials", "seed", "target"):
            setattr(self, name, _whole(name, getattr(self, name)))
        if self.spectrum not in _PHASE_FAMILIES:
            raise ValueError(f"unknown spectrum family {self.spectrum!r}")
        if not isinstance(self.alphas, list) or not self.alphas or any(
            isinstance(a, bool) or not isinstance(a, Real) or not 0.0 < a < 1.0
            for a in self.alphas
        ):
            raise ValueError("alphas must be a nonempty list of numbers inside (0, 1)")
        if not self.protocols:
            raise ValueError("at least one protocol is required")
        if self.trials < 2:
            raise ValueError("trials must be at least 2")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0 <= self.target < self.L:
            raise ValueError("target mode label out of range")

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


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


def accounting(spectrum, kind, horizons, N_t, N_s, label=0, *, overlaps_known=False):
    """(g0, gamma, bound, t_total, fim) of N_t times x N_s shots per horizon.

    Blocks and costs add up over ``horizons``; with T = horizons[-1], the
    bound T * t_total / I_ii floors T * t_total * MSE for every protocol
    (MSE >= 1 / I_ii).  With N = len(horizons) N_t N_s, the reported
    gamma = t_total / (N T) and g0 = I_ii / (N T^2) give bound = gamma / g0.
    I_ii is one theta-theta entry, read by ``BlockFim.information``
    (SingularFim unless above 0), so ``overlaps_known`` (passed to
    ``total_fims``) gives the same numbers from the theta rows alone; the
    returned fim is then that block, which ``diag_ratio`` refuses.  It is
    ``accountings`` of the one spectrum, its error raised.
    """
    return _one(
        accountings([spectrum], kind, horizons, N_t, N_s, label, overlaps_known=overlaps_known)
    )


def accountings(spectra, kind, horizons, N_t, N_s, label=0, *, overlaps_known=False):
    """``accounting`` of each spectrum of a stack that shares one phase array.

    Each horizon is one ``total_fims`` build for the whole stack.  A
    spectrum's entry is its tuple, or the first error of its own: a
    horizon's build (the first failing horizon's), then the cost, then
    its I_ii read.
    """
    builds = []
    for h in horizons:
        try:
            builds.append(total_fims(spectra, kind, h, N_t, N_s, overlaps_known=overlaps_known))
        except _ROW_ERRORS as exc:
            builds.append([exc] * len(spectra))
    T, N = float(horizons[-1]), len(horizons) * N_t * N_s
    out = []
    for fims in zip(*builds):
        try:
            for part in fims:
                if isinstance(part, Exception):
                    raise part
            fim = sum(fims[1:], fims[0])
            ttl = sum(t_total(kind, h, N_t, N_s) for h in horizons)
            info = fim.information(label)
            out.append((info / (N * T**2), ttl / (N * T), T * ttl / info, ttl, fim))
        except _ROW_ERRORS as exc:
            out.append(exc)
    return out


def g_i(spectrum, kind, T, N_t, N_s, label=0):
    """Normalized information I_ii / (N_t N_s T^2) at one horizon T, any protocol."""
    return accounting(spectrum, kind, [T], N_t, N_s, label, overlaps_known=True)[0]


def cost_product_bound(spectrum, kind, T, N_t, N_s, label=0):
    """Floor T * t_total / I_ii on T * t_total * MSE at one horizon T, any protocol."""
    return accounting(spectrum, kind, [T], N_t, N_s, label, overlaps_known=True)[2]


def _horizons(pspec, T):
    """The horizons the point's estimator samples: QCELS's ladder, else [T]."""
    return qcels_levels(T, pspec.N_t) if pspec.kind == ProtocolKind.QCELS else [T]


def _accounting(spectrum, pspec, T, target, overlaps_known=False):
    """Accounting over the horizons the point's estimator samples."""
    return accounting(
        spectrum, pspec.kind, _horizons(pspec, T), pspec.N_t, pspec.N_s, target,
        overlaps_known=overlaps_known,
    )


def _grid(config):
    """Grid points (alpha, protocol spec, T) in seed-index order."""
    return [(a, p, T) for a in config.alphas for p in config.protocols for T in p.T]


def _pass(config, extra=None):
    """One accounted BenchResult row per grid point, in grid order.

    Each row gets c0, g0, gamma, bound and t_total; ``extra(row, spectrum,
    fim, point_idx, pspec, T)`` may fill more columns.  Every alpha has
    the same phases, so each (protocol, T) is accounted once for the
    whole alpha sweep (``accountings``).  A failure of a point's spectrum,
    accounting or ``extra`` lands in that point's error column alone.
    Without ``extra`` nothing reads past I_ii, so only the theta-theta
    blocks are built (``overlaps_known``); an ``extra`` gets the full matrix.
    """
    spectra = []
    for alpha in config.alphas:
        try:
            spectra.append(make_spectrum(config.spectrum, config.L, alpha))
        except _ROW_ERRORS as exc:
            spectra.append(exc)
    built = [s for s in spectra if not isinstance(s, Exception)]
    points = [(p, T) for p in config.protocols for T in p.T]
    # per point, the accounting of each alpha, or its spectrum's error
    accounted = []
    for pspec, T in points:
        each = iter(accountings(
            built, pspec.kind, _horizons(pspec, T), pspec.N_t, pspec.N_s, config.target,
            overlaps_known=extra is None,
        ))
        accounted.append([s if isinstance(s, Exception) else next(each) for s in spectra])
    rows = []
    for i, (alpha, s) in enumerate(zip(config.alphas, spectra)):
        for j, (pspec, T) in enumerate(points):
            row = BenchResult(
                config.spectrum, config.L, alpha, pspec.kind.value,
                float(T), pspec.N_t, pspec.N_s, config.trials,
            )
            try:
                row.c0 = _one([s]).overlap(config.target)
                row.g0, row.gamma, row.bound, row.t_total, fim = _one([accounted[j][i]])
                if extra is not None:
                    extra(row, s, fim, i * len(points) + j, pspec, T)
            except _ROW_ERRORS as exc:
                row.error = f"{type(exc).__name__}: {exc}"
            rows.append(row)
    return rows


def _draw(spectrum, pspec, T, seed, point_idx, trial):
    """The samples of one trial, seeded by (seed, point_idx, trial).

    QCELS draws its ``qcels_levels`` ladder, one sample per level, the
    last at T; every other protocol draws one sample.
    """
    s_sched, s_data = np.random.SeedSequence((seed, point_idx, trial)).spawn(2)
    kind = pspec.kind
    if kind == ProtocolKind.QFT_QPE:
        return [sample_qft(spectrum, register_width(T), pspec.N_s, seed=s_data)]
    if kind == ProtocolKind.QCELS:
        levels = qcels_levels(T, pspec.N_t)
        return [
            sample_ht(spectrum, realize(kind, h, pspec.N_t), pspec.N_s, seed=sd)
            for h, sd in zip(levels, s_data.spawn(len(levels)))
        ]
    sched = realize(kind, T, pspec.N_t, seed=s_sched)
    return [sample_ht(spectrum, sched, pspec.N_s, seed=s_data)]


def _one_trial(spectrum, pspec, T, base_seed, point_idx, trial):
    """The estimate of the target phase from the trial's ``_draw``."""
    kind = pspec.kind
    if kind == ProtocolKind.RPE:
        raise ValueError(f"{kind.value} has no estimator")
    samples = _draw(spectrum, pspec, T, base_seed, point_idx, trial)
    if kind == ProtocolKind.QMEGS:
        return estimate_qmegs(samples[0], T).theta_hat
    if kind == ProtocolKind.CSQPE:
        return estimate_csqpe(samples[0], pspec.sparsity).theta_hat
    if kind == ProtocolKind.QCELS:
        return estimate_qcels_ml(samples).theta_hat
    return estimate_curvefit_qft(samples[0]).theta_hat


def _bench_point(config, row, spectrum, fim, point_idx, pspec, T):
    """Add f0_max, diag_ratio and the scored trials to an accounted row."""
    row.f0_max = f_i_max(spectrum, config.target)
    row.diag_ratio = _diag_ratio(fim, config.target)
    hats = [
        _one_trial(spectrum, pspec, T, config.seed, point_idx, k)
        for k in range(config.trials)
    ]
    sq = _wrap(np.array(hats) - spectrum.phase(config.target)) ** 2
    row.mse = float(sq.mean())
    row.mse_se = float(sq.std(ddof=1) / np.sqrt(config.trials))
    row.ratio_r = float(T * row.t_total * row.mse / row.bound)


def run_campaign(config):
    """Sample, estimate and score every grid point of the campaign, serially.

    Trials run one after another: the estimators are many small numpy
    calls that hold the interpreter lock, so a thread pool ran slower
    than this loop.
    """
    return _pass(config, partial(_bench_point, config))


def sweep_bounds(config):
    """Tabulate the bounds over the alpha sweep; locate the QFT/HT crossover.

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


def write_rows_csv(rows, path, seed, columns=None):
    """Dataclass rows to CSV under the versioned header comment.

    ``columns`` picks and orders the fields written (see COLUMNS); by
    default every field of the row dataclass is written.
    """
    if not rows:
        raise ValueError("nothing to write")
    names = columns or [f.name for f in fields(rows[0])]
    columns = [[getattr(row, n) for row in rows] for n in names]
    write_csv(path, names, [columns], f"# qpe-bounds v{__version__} seed={seed}")


def emit_samples(config, out_path):
    """Write raw sample CSVs, one file per grid point; returns the paths.

    Each trial is the ``_draw`` that ``run_campaign`` estimates; a QCELS
    file holds the last level of its ladder, the one at T.  Two points
    that would share a file, the same (kind, alpha, T), are refused before
    any file is written.
    """
    stem, ext = os.path.splitext(out_path)
    ext = ext or ".csv"
    header = f"# qpe-bounds v{__version__} seed={config.seed}"
    points = _grid(config)
    paths = [
        out_path if len(points) == 1 else f"{stem}_{p.kind.value}_a{alpha}_T{T}{ext}"
        for alpha, p, T in points
    ]
    clash = sorted({path for path in paths if paths.count(path) > 1})
    if clash:
        raise ValueError(f"grid points with the same (kind, alpha, T) share {', '.join(clash)}")
    for idx, ((alpha, pspec, T), path) in enumerate(zip(points, paths)):
        s = make_spectrum(config.spectrum, config.L, alpha)
        samples = [
            _draw(s, pspec, T, config.seed, idx, k)[-1] for k in range(config.trials)
        ]
        qft = pspec.kind == ProtocolKind.QFT_QPE
        (write_qft_csv if qft else write_ht_csv)(samples, path, header)
    return paths
