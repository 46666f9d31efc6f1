"""Classical post-processing of sampled data into phase estimates.

Four reconstructions: filtered spectral search on random-time data,
single- and multi-level complex-exponential least squares on arithmetic
grids, orthogonal matching pursuit over a frequency dictionary, and
nonlinear curve fitting of the readout histogram against the squared
kernel model.  All return an Estimate; estimators never see the truth.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

# dirichlet and dirichlet_derivative are no longer called here; the
# per-layer trace in perfbench/tracing.py wraps them by name in this module
from .dirichlet import (  # noqa: F401
    _TWO_PI,
    dirichlet,
    dirichlet_derivative,
    squared_kernel_grid,
)
from .errors import EmptyData, NoPeaksDetected, ScheduleMismatch

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Estimate:
    theta_hat: float
    amplitudes: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def _wrap(x):
    return (x + np.pi) % _TWO_PI - np.pi


def _filtered(z, times, xs, chunk=512):
    """G(x) = mean_k z_k exp(-i x t_k) on a grid, chunked for memory.

    Large uniform grids avoid re-exponentiating every (x, t) pair: with
    s = exp(-i dx t) the grid factors as G(x0 + (a + C m) dx) =
    sum_t s^a (p0 s^C^m)_t, one cumulative product per axis feeding a
    single complex matrix product.  The phasor drift over K cumulative
    multiplies is ~sqrt(K) ulp, far below grid-cell resolution.
    """
    if xs.size >= 1024:
        dx = np.diff(xs)
        if dx.size and np.allclose(dx, dx[0], rtol=1e-12, atol=1e-15):
            N = times.size
            C = 256
            nchunk = -(-xs.size // C)
            s = np.exp(-1j * dx[0] * times)
            base = np.exp(-1j * xs[0] * times) * (z / N)
            pow_in = np.ones((C, N), dtype=complex)
            pow_in[1:] = np.broadcast_to(s, (C - 1, N))
            powers = np.cumprod(pow_in, axis=0)  # s^0 .. s^(C-1)
            starts = np.ones((nchunk, N), dtype=complex)
            starts[0] = base
            starts[1:] = np.broadcast_to(powers[-1] * s, (nchunk - 1, N))
            starts = np.cumprod(starts, axis=0)  # base * s^(C m)
            table = powers @ starts.T  # [a, m] = G at x0 + (a + C m) dx
            return table.T.ravel()[: xs.size]
    out = np.empty(xs.size, dtype=complex)
    for lo in range(0, xs.size, chunk):
        block = xs[lo:lo + chunk]
        out[lo:lo + chunk] = np.exp(-1j * np.outer(block, times)) @ z / times.size
    return out


def _g_scalar(z, times, x):
    return np.exp(-1j * x * times) @ z / times.size


def _golden_max(fn, lo, hi, tol):
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _midpoint_grid(step):
    """Symmetric grid of midpoints covering (-pi, pi] with spacing <= step."""
    K = int(np.ceil(_TWO_PI / step))
    return -np.pi + (np.arange(K) + 0.5) * (_TWO_PI / K), _TWO_PI / K


def estimate_qmegs(data, T, grid_step=None, refine=True):
    """Peak of the Gaussian-filtered statistic |G(x)| over (-pi, pi].

    Grid spacing is capped at 0.5/T so the main lobe is always resolved;
    the winning cell is polished by golden section to 5e-5/T.
    """
    times = data.times
    z = data.z_hat
    if times.size == 0:
        raise EmptyData("no measurement records")
    step = 0.5 / T if grid_step is None else min(grid_step, 0.5 / T)
    xs, cell = _midpoint_grid(step)
    mag = np.abs(_filtered(z, times, xs))
    x0 = float(xs[np.argmax(mag)])
    if refine:
        x0 = _golden_max(
            lambda x: abs(_g_scalar(z, times, x)), x0 - cell, x0 + cell, 5e-5 / T
        )
    return Estimate(
        float(_wrap(x0)),
        diagnostics={"grid_step": cell, "grid_points": xs.size, "refined": refine},
    )


def _check_arithmetic(times):
    if times.size == 0:
        raise EmptyData("no measurement records")
    if times.size < 2:
        raise ScheduleMismatch("need at least two times on an arithmetic grid")
    dt = np.diff(times)
    if dt[0] <= 0 or not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12):
        raise ScheduleMismatch("times are not an ascending arithmetic grid")
    return float(dt[0])


def _alternate(z, times, theta, bracket, rounds=2, tol=1e-9):
    """Alternate the closed-form amplitude with 1-D refinement of theta.

    For fixed theta the least-squares amplitude is r = G(theta), and
    substituting it back leaves sum|z|^2 - N |G(theta)|^2, so the theta
    step maximizes |G| directly; the second round re-centers the bracket
    in case the optimum sat on its edge.
    """
    for _ in range(rounds):
        theta = _golden_max(
            lambda x: abs(_g_scalar(z, times, x)),
            theta - bracket, theta + bracket, tol,
        )
        bracket = max(0.25 * bracket, 10.0 * tol)
    r = _g_scalar(z, times, theta)
    resid = float(np.sum(np.abs(z - r * np.exp(1j * theta * times)) ** 2))
    return theta, r, resid


def estimate_qcels(data):
    """Single-level fit of z(t_k) ~ r exp(i theta t_k) on an arithmetic grid."""
    return estimate_qcels_ml([data])


def estimate_qcels_ml(levels):
    """Multi-level variant: levels of doubling horizon warm-start theta.

    Each entry is a dataset on its own arithmetic grid; the first level
    is searched globally, later levels only inside a bracket one alias
    cell wide around the running estimate.
    """
    if not levels:
        raise EmptyData("no levels")
    for lvl in levels:
        _check_arithmetic(lvl.times)
    horizons = [float(lvl.times.max()) for lvl in levels]
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ScheduleMismatch("level horizons must strictly increase")

    z = levels[0].z_hat
    times = levels[0].times
    xs, cell = _midpoint_grid(_TWO_PI / (4.0 * horizons[0]))
    theta = float(xs[np.argmax(np.abs(_filtered(z, times, xs)))])
    theta, r, resid = _alternate(z, times, theta, cell)

    for j in range(1, len(levels)):
        z = levels[j].z_hat
        times = levels[j].times
        b = np.pi / (2.0 * horizons[j - 1])
        grid = theta + np.linspace(-b, b, 33)
        theta = float(grid[np.argmax(np.abs(_filtered(z, times, grid)))])
        theta, r, resid = _alternate(z, times, theta, b / 16.0, rounds=2)
    return Estimate(
        float(_wrap(theta)),
        amplitudes=np.array([r]),
        diagnostics={"residual": resid, "levels": len(levels)},
    )


def estimate_csqpe(data, sparsity):
    """Orthogonal matching pursuit over frequency atoms exp(i theta t_k).

    Greedy selection on a pi/(2T) grid with local refinement, joint
    amplitude refits, and a few coordinate polish sweeps at the end.
    """
    K = int(sparsity)
    if K < 1:
        raise ValueError("sparsity must be at least 1")
    times = data.times
    z = data.z_hat
    if times.size == 0:
        raise EmptyData("no measurement records")
    T = float(np.max(np.abs(times)))
    xs, cell = _midpoint_grid(np.pi / (2.0 * T))

    selected = []
    residual = z.copy()
    B = np.empty((times.size, 0), dtype=complex)
    amps = np.zeros(0, dtype=complex)
    for _ in range(K):
        corr = np.abs(_filtered(residual, times, xs))
        for s in selected:
            corr[np.abs(_wrap(xs - s)) < 2.0 * cell] = -1.0
        x0 = float(xs[np.argmax(corr)])
        x0 = _golden_max(
            lambda x: abs(_g_scalar(residual, times, x)), x0 - cell, x0 + cell, 1e-9
        )
        selected.append(x0)
        B = np.exp(1j * np.outer(times, np.array(selected)))
        amps = np.linalg.lstsq(B, z, rcond=None)[0]
        residual = z - B @ amps

    for _ in range(4):
        for m in range(len(selected)):
            # profile the amplitude out: against the deflated data the
            # optimal single-atom fit is G itself, so move theta to its peak
            others = z - B @ amps + amps[m] * B[:, m]
            selected[m] = _golden_max(
                lambda x: abs(_g_scalar(others, times, x)),
                selected[m] - 0.5 * cell, selected[m] + 0.5 * cell, 1e-10,
            )
            B[:, m] = np.exp(1j * selected[m] * times)
            amps[m] = _g_scalar(others, times, selected[m])
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
        },
    )


def _kernel_fit(p_hat, M, thetas, max_iter=60):
    """Damped coordinate Gauss-Newton on the squared-kernel mixture."""
    thetas = np.array(thetas, dtype=float)
    Kp = thetas.size
    B = squared_kernel_grid(M, thetas).T  # columns D_M(theta_m - 2 pi y/M)^2 / M^2
    amps = nnls(B, p_hat)[0]
    for _ in range(max_iter):
        r = B @ amps - p_hat
        moved = 0.0
        for m in range(Kp):
            if amps[m] == 0.0:
                continue
            J = amps[m] * squared_kernel_grid(M, thetas[m], derivative=True)[1]
            denom = J @ J
            if denom < 1e-300:
                continue
            delta = -(J @ r) / denom
            base = r @ r
            lam = 1.0
            for _ in range(25):
                cand = thetas[m] + lam * delta
                col = squared_kernel_grid(M, cand)
                r_new = r + amps[m] * (col - B[:, m])
                if r_new @ r_new < base:
                    thetas[m] = cand
                    B[:, m] = col
                    r = r_new
                    moved = max(moved, abs(lam * delta))
                    break
                lam *= 0.5
        amps = nnls(B, p_hat)[0]
        if moved < 1e-11:
            break
    resid = float(np.sum((B @ amps - p_hat) ** 2))
    return thetas, amps, resid


def fit_qft_histogram(p_hat, n, n_shots=None):
    """Fit the readout histogram with a small sum of squared kernels.

    Peaks are circular local maxima above max(3/n_shots, 1% of the top
    bin), thinned to a >= 2 bin separation, at most ten kept.  The fit is
    restarted from each half-bin shift of the detected centers and the
    best residual wins; theta_hat is the center of the largest amplitude.
    """
    p_hat = np.asarray(p_hat, dtype=float)
    M = 2**int(n)
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
    centers = _wrap(_TWO_PI * np.array(kept, dtype=float) / M)

    best = None
    for shift in (0.0, -np.pi / M, np.pi / M):
        thetas, amps, resid = _kernel_fit(p_hat, M, centers + shift)
        if best is None or resid < best[2]:
            best = (thetas, amps, resid)
    thetas, amps, resid = best
    order = np.argsort(-amps, kind="stable")
    return Estimate(
        float(_wrap(thetas[order[0]])),
        amplitudes=amps[order],
        diagnostics={
            "thetas": _wrap(thetas[order]),
            "residual": resid,
            "peaks": len(kept),
        },
    )


def estimate_curvefit_qft(sample):
    """Histogram the outcomes and fit the squared-kernel mixture."""
    if sample.outcomes.size == 0:
        raise EmptyData("no outcomes")
    M = 2**int(sample.n)
    p_hat = np.bincount(sample.outcomes, minlength=M) / sample.N_s
    return fit_qft_histogram(p_hat, sample.n, n_shots=sample.N_s)
