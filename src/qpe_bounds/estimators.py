"""Classical post-processing of sampled data into phase estimates.

Four reconstructions: filtered spectral search on random-time data,
single- and multi-level complex-exponential least squares on arithmetic
grids, orthogonal matching pursuit over a frequency dictionary, and
nonlinear curve fitting of the readout histogram against the squared
kernel model.  All return an Estimate; estimators never see the truth.

The three Hadamard-test estimators share one peak step, ``_peak``, on the
statistic G(x) = mean_k z_k exp(-i x t_k): ``_scan`` evaluates G on a
midpoint grid of (-pi, pi] with one type-1 NUFFT, at any time layout,
and ``_polish`` refines the winning cell by safeguarded Newton ascent on
|G|^2.  QMEGS is one ``_peak``; QCELS is one ``_peak`` and one
``_polish`` per later level; CSQPE is one ``_peak`` per greedy pick.

scipy is imported where it is called, so that importing the package does
not load it: ``_scan`` takes ``next_fast_len`` from ``scipy.fft``, and the
histogram fit's NNLS goes through the module-level ``nnls`` wrapper, which
imports ``scipy.optimize`` on call and which the per-layer trace in
perfbench/tracing.py counts by name in this module.
"""

from dataclasses import dataclass, field

import numpy as np

# dirichlet and dirichlet_derivative are no longer called here; the
# per-layer trace in perfbench/tracing.py wraps them by name in this module
from .dirichlet import (  # noqa: F401
    _TWO_PI,
    dirichlet,
    dirichlet_derivative,
    squared_kernel_grid,
)
from .errors import EmptyData, NoPeaksDetected, ScheduleMismatch
from .schedules import _count, _point, _whole

# half-width, in fine-grid cells, of the Gaussian that _scan spreads each
# record over; at oversampling >= 2 its edge value is <= exp(-9 pi) ~ 5e-13
_SPREAD = 12
# _polish stops once a step is this short, or after this many accepted steps
_STEP_TOL = 1e-12
_MAX_STEPS = 100
# _kernel_fit's damping starts at _LAM_START and moves by _LAM_FACTOR a step;
# the fit stops past _LAM_MAX or at a step shorter than _FIT_STEP_TOL bin
_LAM_START = 1e-3
_LAM_FACTOR = 10.0
_LAM_MAX = 1e12
_FIT_STEP_TOL = 1e-9
# the widest register the histogram fit takes: its K and dK over all 2^n bins
# cost about 67 B per (peak, bin), 2.6 GiB at ten peaks and n = 22
_FIT_MAX_N = 22


@dataclass
class Estimate:
    theta_hat: float
    amplitudes: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def _wrap(x):
    return (x + np.pi) % _TWO_PI - np.pi


def _filtered(z, times, xs):
    """G(x) = mean_k z_k exp(-i x t_k) by direct sum: the tests' reference for ``_scan``."""
    return np.exp(-1j * np.outer(xs, times)) @ z / times.size


def _scan(z, times, K):
    """G on the K-cell midpoint grid x_j = -pi + (j + 1/2) 2 pi / K.

    One type-1 NUFFT with Gaussian gridding (Dutt & Rokhlin 1993; Greengard
    & Lee, SIAM Rev. 46, 2004).  With h = 2 pi / K and x_c the cell nearest
    0, G(x_c + m h) = sum_k c_k exp(-i m h t_k) for c_k = z_k exp(-i x_c t_k)
    / N and |m| <= K / 2.  On a fine grid of M cells of [0, 2 pi), M the
    first FFT-friendly length from 2K (oversampling R = M / K >= 2), the
    record h t_k sits at cell t_k M / K.  Each c_k is spread there by the
    Gaussian exp(-s^2 / 4 tau), one FFT gives the Fourier coefficients of
    the sum, and dividing by the Gaussian's own, sqrt(tau / pi)
    exp(-m^2 tau), recovers G at every m, to ~1e-12 of mean |z_k|.
    """
    from scipy.fft import next_fast_len

    M = next_fast_len(2 * K)
    R = M / K
    centre = K // 2
    tau = np.pi * _SPREAD / (K * K * R * (R - 0.5))
    c = z * np.exp(-1j * (-np.pi + (centre + 0.5) * (_TWO_PI / K)) * times) / times.size
    u = times * R
    base = np.floor(u)
    offsets = np.arange(1 - _SPREAD, _SPREAD + 1)
    # exp(-s^2 / 4 tau) at s = 2 pi d / M, d the fine-cell distance u - node
    gauss = np.exp(-(np.pi * (R - 0.5) / (R * _SPREAD)) * ((u - base)[:, None] - offsets) ** 2)
    cells = (((base.astype(np.intp) % M)[:, None] + offsets) % M).ravel()
    fine = np.bincount(cells, (c.real[:, None] * gauss).ravel(), M) + 1j * np.bincount(
        cells, (c.imag[:, None] * gauss).ravel(), M
    )
    m = np.arange(K) - centre
    return np.fft.fft(fine)[m % M] * (np.sqrt(np.pi / tau) / M) * np.exp(tau * m * m)


def _polish(z, times, x, lo, hi):
    """Safeguarded Newton ascent on f = |G|^2 from x, inside [lo, hi].

    Each evaluation is one exp(-i x t) and three dot products, for G,
    G' = G[-i t z] and G'' = G[-t^2 z]; then f' = 2 Re(conj(G) G') and
    f'' = 2 (|G'|^2 + Re(conj(G) G'')).  Where f is concave the step is
    Newton's, elsewhere it runs to the bracket end uphill; either is clipped
    to [lo, hi] and halved until f does not fall.  On steps below
    1e-3 / max|t|, where f is flat to rounding, whether it falls is judged
    by the trapezoid of f' instead.  It stops once a step is no longer than
    _STEP_TOL.  Returns (x, G(x), number of evaluations).
    """
    w = np.stack([z, -1j * times * z, -times * times * z]) / times.size
    reach = np.max(np.abs(times))

    def evaluate(x):
        g, g1, g2 = w @ np.exp(-1j * x * times)
        gc = g.conjugate()
        return g, abs(g) ** 2, 2.0 * (gc * g1).real, 2.0 * (abs(g1) ** 2 + (gc * g2).real)

    g, f, d1, d2 = evaluate(x)
    evals = 1
    for _ in range(_MAX_STEPS):
        step = -d1 / d2 if d2 < 0.0 else np.copysign(hi - lo, d1)
        step = min(max(x + step, lo), hi) - x
        while abs(step) > _STEP_TOL:
            y = min(max(x + step, lo), hi)
            trial = evaluate(y)
            evals += 1
            if trial[1] >= f or (abs(step) * reach < 1e-3 and step * (d1 + trial[2]) >= 0.0):
                break
            step *= 0.5
        else:
            break
        x = y
        g, f, d1, d2 = trial
    return float(x), g, evals


def _peak(z, times, step, taken=()):
    """Polished maximum of |G| over (-pi, pi], away from the ``taken`` centers.

    ``_scan`` runs once on the midpoint grid with spacing <= step; the cells
    within two cells of each taken center are masked, and the winning cell
    is polished within one cell either side.  Returns (x, G(x), polish
    evaluations, grid points).
    """
    K = int(np.ceil(_TWO_PI / step))
    cell = _TWO_PI / K
    xs = -np.pi + (np.arange(K) + 0.5) * cell
    corr = np.abs(_scan(z, times, K))
    for s in taken:
        corr[np.abs(_wrap(xs - s)) < 2.0 * cell] = -1.0
    x0 = float(xs[np.argmax(corr)])
    return *_polish(z, times, x0, x0 - cell, x0 + cell), K


def estimate_qmegs(data, T):
    """Peak of |G(x)| by ``_peak`` at spacing <= 0.5/T, fine enough to resolve the main lobe.

    The diagnostics carry the peak height |G(theta_hat)| and the residual
    sum|z|^2 - N |G|^2 of the single-exponential fit (see estimate_qcels_ml).
    """
    T = _point("qmegs", T, 1)[1]
    z = data.z_hat
    if z.size == 0:
        raise EmptyData("no measurement records")
    x, g, evals, K = _peak(z, data.times, 0.5 / T)
    peak = float(abs(g))
    return Estimate(
        float(_wrap(x)),
        diagnostics={
            "grid_step": _TWO_PI / K,
            "grid_points": K,
            "polish_evals": evals,
            "peak": peak,
            "residual": float(np.sum(np.abs(z) ** 2) - z.size * peak**2),
        },
    )


def _check_arithmetic(times):
    if times.size == 0:
        raise EmptyData("no measurement records")
    if times.size < 2:
        raise ScheduleMismatch("need at least two times on an arithmetic grid")
    dt = np.diff(times)
    if dt[0] <= 0 or not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12):
        raise ScheduleMismatch("times are not an ascending arithmetic grid")


def estimate_qcels(data):
    """Single-level fit of z(t_k) ~ r exp(i theta t_k) on an arithmetic grid."""
    return estimate_qcels_ml([data])


def estimate_qcels_ml(levels):
    """Multi-level variant: levels of doubling horizon warm-start theta.

    Each entry is a dataset on its own arithmetic grid.  For fixed theta the
    least-squares amplitude is r = G(theta), which leaves the residual
    sum|z|^2 - N |G(theta)|^2, so each level maximizes |G|: the first by
    ``_peak`` on a pi/(2 h) grid, each later one by one ``_polish`` within
    one alias cell, pi/(2 h_prev), of the running estimate.
    """
    if not levels:
        raise EmptyData("no levels")
    for lvl in levels:
        _check_arithmetic(lvl.times)
    horizons = [float(lvl.times.max()) for lvl in levels]
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ScheduleMismatch("level horizons must strictly increase")

    theta, r, evals, _ = _peak(levels[0].z_hat, levels[0].times, np.pi / (2.0 * horizons[0]))
    for lvl, b in zip(levels[1:], np.pi / (2.0 * np.array(horizons))):
        theta, r, n = _polish(lvl.z_hat, lvl.times, theta, theta - b, theta + b)
        evals += n
    last = levels[-1]
    resid = float(np.sum(np.abs(last.z_hat - r * np.exp(1j * theta * last.times)) ** 2))
    return Estimate(
        float(_wrap(theta)),
        amplitudes=np.array([r]),
        diagnostics={"residual": resid, "levels": len(levels), "polish_evals": evals},
    )


def estimate_csqpe(data, sparsity):
    """Orthogonal matching pursuit over frequency atoms exp(i theta t_k).

    Each greedy pick is one ``_peak`` of the residual on a pi/(2T) grid,
    away from the atoms already taken, followed by a joint amplitude refit;
    four coordinate polish sweeps over the atoms end it.
    """
    K = _count("sparsity", sparsity)
    times, z = data.times, data.z_hat
    if times.size == 0:
        raise EmptyData("no measurement records")
    T = float(np.max(np.abs(times)))

    selected, evals, residual = [], 0, z
    for _ in range(K):
        x0, _, n, grid = _peak(residual, times, np.pi / (2.0 * T), selected)
        evals += n
        selected.append(x0)
        B = np.exp(1j * np.outer(times, np.array(selected)))
        amps = np.linalg.lstsq(B, z, rcond=None)[0]
        residual = z - B @ amps

    cell = _TWO_PI / grid
    for _ in range(4):
        for m in range(len(selected)):
            # profile the amplitude out: against the deflated data the
            # optimal single-atom fit is G itself, so move theta to its peak
            others = z - B @ amps + amps[m] * B[:, m]
            selected[m], amps[m], n = _polish(
                others, times, selected[m],
                selected[m] - 0.5 * cell, selected[m] + 0.5 * cell,
            )
            evals += n
            B[:, m] = np.exp(1j * selected[m] * times)
        amps = np.linalg.lstsq(B, z, rcond=None)[0]
    residual = z - B @ amps

    best = int(np.argmax(np.abs(amps)))
    order = np.argsort(-np.abs(amps))
    return Estimate(
        float(_wrap(selected[best])),
        amplitudes=amps[order],
        diagnostics={
            "thetas": _wrap(np.array(selected)[order]),
            "residual": float(np.sum(np.abs(residual) ** 2)),
            "grid_step": cell,
            "polish_evals": evals,
        },
    )


def nnls(A, b):
    """scipy.optimize.nnls(A, b): (x, rnorm) with x >= 0 minimizing |A x - b|."""
    from scipy.optimize import nnls

    return nnls(A, b)


def _kernel_fit(p_hat, M, thetas):
    """Levenberg-Marquardt on all centers at once, NNLS amplitudes projected out.

    Variable projection (Golub & Pereyra 1973/2003) with Kaufman's Jacobian:
    amps x dK of the active columns, projected off their span by one thin
    QR.  The damping is lam diag(J^T J), and a step counts only when the
    residual falls; the model is linearized again only after such a step.
    Returns (thetas, amps, residual, model evaluations).
    """

    def model(thetas):
        K, dK = squared_kernel_grid(M, thetas, derivative=True)
        amps = nnls(K.T, p_hat)[0]
        r = K.T @ amps - p_hat
        return K, dK, amps, r, r @ r

    K, dK, amps, r, f = model(thetas)
    evals, lam, moved = 1, _LAM_START, True
    while lam <= _LAM_MAX:
        if moved:
            act = amps > 0.0
            Q = np.linalg.qr(K[act].T)[0]
            J = amps[act] * dK[act].T
            J -= Q @ (Q.T @ J)
            A, g = J.T @ J, -(J.T @ r)
        step = np.linalg.lstsq(A + lam * np.diag(np.diag(A)), g, rcond=None)[0]
        trial = thetas.copy()
        trial[act] += step
        new = model(trial)
        evals += 1
        moved = new[4] < f
        if moved:
            thetas, (K, dK, amps, r, f), lam = trial, new, lam / _LAM_FACTOR
        else:
            lam *= _LAM_FACTOR
        # a larger lam only shortens the step, so a short one ends the fit, taken or not
        if np.max(np.abs(step)) < _FIT_STEP_TOL * _TWO_PI / M:
            break
    return thetas, amps, float(f), evals


def _fit_width(n):
    n = _whole("n", n)
    if n > _FIT_MAX_N:
        raise ValueError(f"the histogram fit takes registers of n <= {_FIT_MAX_N}")
    return n


def fit_qft_histogram(p_hat, n, n_shots=None):
    """Fit the readout histogram with a small sum of squared kernels.

    Peaks are circular local maxima above max(3/n_shots, 1% of the top
    bin), thinned to a >= 2 bin separation, at most ten kept.  Each starts
    half a bin toward its larger neighbour (a center exactly on a bin is
    stationary: every dK vanishes there), and ``_kernel_fit`` moves all
    centers jointly; theta_hat is the center of the largest amplitude.
    """
    M = 2 ** _fit_width(n)
    p_hat = np.asarray(p_hat, dtype=float)
    if p_hat.size != M:
        raise ValueError("histogram length must be 2^n")
    thr = 0.01 * float(p_hat.max())
    if n_shots:
        thr = max(thr, 3.0 / n_shots)
    local_max = (p_hat >= np.roll(p_hat, 1)) & (p_hat >= np.roll(p_hat, -1))
    cand = np.nonzero(local_max & (p_hat > thr))[0]
    if cand.size == 0:
        raise NoPeaksDetected("no histogram bin exceeds the detection threshold")
    cand = cand[np.argsort(-p_hat[cand], kind="stable")]
    kept = []
    for b in cand:
        d = np.abs(b - np.array(kept, dtype=float)) if kept else np.array([])
        if kept and np.any(np.minimum(d, M - d) < 2):
            continue
        kept.append(int(b))
        if len(kept) == 10:
            break
    kept = np.array(kept)
    toward = np.where(p_hat[(kept + 1) % M] >= p_hat[kept - 1], 0.5, -0.5)
    thetas, amps, resid, evals = _kernel_fit(p_hat, M, _wrap(_TWO_PI * (kept + toward) / M))
    order = np.argsort(-amps, kind="stable")
    return Estimate(
        float(_wrap(thetas[order[0]])),
        amplitudes=amps[order],
        diagnostics={
            "thetas": _wrap(thetas[order]),
            "residual": resid,
            "peaks": len(kept),
            "fit_evals": evals,
        },
    )


def estimate_curvefit_qft(sample):
    """Histogram the outcomes and fit the squared-kernel mixture."""
    if sample.outcomes.size == 0:
        raise EmptyData("no outcomes")
    M = 2 ** _fit_width(sample.n)
    p_hat = np.bincount(sample.outcomes, minlength=M) / sample.N_s
    return fit_qft_histogram(p_hat, sample.n, n_shots=sample.N_s)
