"""Classical post-processing of sampled data into phase estimates.

Four reconstructions: filtered spectral search on random-time data,
single- and multi-level complex-exponential least squares on arithmetic
grids, orthogonal matching pursuit over a frequency dictionary, and
nonlinear curve fitting of the readout histogram against the squared
kernel model.  All return an Estimate; estimators never see the truth.

The three Hadamard-test estimators share one peak step, ``_peak``, on the
statistic G(x) = mean_k z_k exp(-i x t_k): ``_scan`` evaluates G on a
midpoint grid of (-pi, pi], by one exact length-K FFT when every time is
a whole number (CSQPE's schedule) and by one type-1 NUFFT otherwise, and
``_polish`` refines the winning cell by safeguarded Newton ascent on
|G|^2.  QMEGS is one ``_peak``; QCELS is one ``_peak`` and one
``_polish`` per later level; CSQPE is one ``_peak`` per greedy pick.
Every exp(i x t) at the data times comes from one ``dirichlet.cis``.

scipy is imported where it is called, so that importing the package does
not load it: ``_scan`` takes ``fft`` and ``_gridding`` ``next_fast_len``
from ``scipy.fft``, and the histogram fit's NNLS goes through the
module-level ``nnls`` wrapper, which imports ``scipy.optimize`` on call
and which the per-layer trace in perfbench/tracing.py counts by name in
this module.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

# dirichlet and dirichlet_derivative are no longer called here; the
# per-layer trace in perfbench/tracing.py wraps them by name in this module
from .dirichlet import (  # noqa: F401
    _TWO_PI,
    cis,
    dirichlet,
    dirichlet_derivative,
    squared_kernel_grid,
)
from .errors import EmptyData, NoPeaksDetected, ScheduleMismatch
from .fim import _CHUNK_NODES
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
# the least offset, in bins, at which _fit_start puts a peak from its bin
_START_FLOOR = 1e-3
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


@functools.lru_cache(maxsize=32)
def _gridding(K):
    """The NUFFT's constants for K cells: (M, R, width, deconv), deconv read-only.

    M is the first FFT-friendly length from 2K and R = M / K; width is the
    Gaussian's exponent per squared fine cell, and deconv the K factors
    sqrt(pi / tau) exp(tau m^2) / M that undo its Fourier coefficients at
    m = -K // 2 .. K - 1 - K // 2.
    """
    from scipy.fft import next_fast_len

    M = next_fast_len(2 * K)
    R = M / K
    tau = np.pi * _SPREAD / (K * K * R * (R - 0.5))
    # exp(-s^2 / 4 tau) at s = 2 pi d / M, d the fine-cell distance u - node
    width = np.pi * (R - 0.5) / (R * _SPREAD)
    m = np.arange(-(K // 2), K - K // 2, dtype=float)
    deconv = np.sqrt(np.pi / tau) / M * np.exp(tau * m * m)
    deconv.setflags(write=False)
    return M, R, width, deconv


def _scan(z, times, K):
    """G on the K-cell midpoint grid x_j = -pi + (j + 1/2) 2 pi / K.

    With h = 2 pi / K and x_c the cell nearest 0, G(x_c + m h) =
    sum_k c_k exp(-i m h t_k) for c_k = z_k exp(-i x_c t_k) / N and
    |m| <= K / 2, the phase ramp from one ``cis``.  When every t_k is a
    whole number, as on CSQPE's schedule, exp(-i m h t_k) depends on t_k
    only mod K: the c_k are binned at t_k mod K and one length-K FFT gives
    G exactly.

    Any other time layout takes one type-1 NUFFT with Gaussian gridding
    (Dutt & Rokhlin 1993; Greengard & Lee, SIAM Rev. 46, 2004).  On a fine
    grid of M cells of [0, 2 pi), M from ``_gridding`` (oversampling
    R = M / K >= 2), the record h t_k sits at cell t_k M / K.  Each c_k is
    spread there by the Gaussian exp(-s^2 / 4 tau), one FFT gives the
    Fourier coefficients of the sum, and dividing by the Gaussian's own,
    sqrt(tau / pi) exp(-m^2 tau), recovers G at every m, to ~1e-12 of mean
    |z_k|.  The records go _CHUNK_NODES at a time onto the M cells padded
    by _SPREAD - 1 in front and _SPREAD behind, so a record needs one
    reduction mod M; the padding cells are added onto the M cells at the
    end, each at its cell mod M, which wraps more than once when
    M < 2 _SPREAD.
    """
    from scipy.fft import fft

    centre = K // 2
    x_c = -np.pi + (centre + 0.5) * (_TWO_PI / K)
    # t - floor(t) is 0 exactly for whole t, and NaN or nonzero otherwise
    if np.all(times - np.floor(times) == 0.0):
        cos, sin = cis(x_c * times)
        c = z * (cos - 1j * sin)
        bins = np.mod(times, K).astype(np.intp)
        f = fft(np.bincount(bins, c.real, K) + 1j * np.bincount(bins, c.imag, K))
        # the coefficient of m = -centre .. K - 1 - centre sits at FFT bin m mod K
        return np.concatenate((f[K - centre :], f[: K - centre])) * (1.0 / times.size)
    M, R, width, deconv = _gridding(K)
    # one row per spread cell, one column per record: numpy runs the long
    # axis innermost; padded cell p holds fine cell (p - _SPREAD + 1) mod M
    offsets = np.arange(1 - _SPREAD, _SPREAD + 1, dtype=float)[:, None]
    pads = np.arange(2 * _SPREAD)[:, None]
    grid = np.zeros(M + 2 * _SPREAD - 1, dtype=complex)
    for lo in range(0, times.size, _CHUNK_NODES):
        t = times[lo : lo + _CHUNK_NODES]
        cos, sin = cis(x_c * t)
        c = z[lo : lo + _CHUNK_NODES] * (cos - 1j * sin)
        u = t * R
        base = np.floor(u)
        u -= base
        d = u - offsets
        d *= d
        d *= -width
        gauss = np.exp(d, out=d)
        cells = base.astype(np.intp) % M + pads
        np.add.at(grid, cells.ravel(), (c * gauss).ravel())
    fine = grid[_SPREAD - 1 : _SPREAD - 1 + M]
    pad = np.r_[: _SPREAD - 1, _SPREAD - 1 + M : grid.size]
    np.add.at(fine, (pad - _SPREAD + 1) % M, grid[pad])
    # the coefficient of m = -centre .. K - 1 - centre sits at FFT bin m mod M
    f = fft(fine)
    return np.concatenate((f[M - centre :], f[: K - centre])) * (deconv / times.size)


def _polish(z, times, x, lo, hi):
    """Safeguarded Newton ascent on f = |G|^2 from x, inside [lo, hi].

    With z = a + i b, the records of G, G' = G[-i t z] and G'' = G[-t^2 z]
    are (a, b), (t b, -t a) and (-t^2 a, -t^2 b), the rows of one real
    (6, N) weight matrix W: each evaluation is one ``cis`` of x t and two
    real products, W cos and W sin, which give the real and imaginary
    parts of all three as Re = (W cos)_a + (W sin)_b and
    Im = (W cos)_b - (W sin)_a.  Then f' = 2 Re(conj(G) G') and
    f'' = 2 (|G'|^2 + Re(conj(G) G'')), on Python floats.  Where f is
    concave the step is Newton's, elsewhere it runs to the bracket end
    uphill; either is clipped to [lo, hi] and halved until f does not fall.
    On steps below 1e-3 / max|t|, where f is flat to rounding, whether it
    falls is judged by the trapezoid of f' instead.  It stops once a step
    is no longer than _STEP_TOL.  Returns (x, G(x), number of evaluations).
    """
    a, b = z.real, z.imag
    ta, tb = times * a, times * b
    w = np.stack([a, b, tb, -ta, -times * ta, -times * tb]) / times.size
    reach = np.max(np.abs(times))

    def evaluate(x):
        cos, sin = cis(x * times)
        ca, cb, c1a, c1b, c2a, c2b = (w @ cos).tolist()
        sa, sb, s1a, s1b, s2a, s2b = (w @ sin).tolist()
        gr, gi = ca + sb, cb - sa
        g1r, g1i = c1a + s1b, c1b - s1a
        g2r, g2i = c2a + s2b, c2b - s2a
        d1 = 2.0 * (gr * g1r + gi * g1i)
        d2 = 2.0 * (g1r * g1r + g1i * g1i + gr * g2r + gi * g2i)
        return complex(gr, gi), gr * gr + gi * gi, d1, d2

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


def _near(xs, cell, s):
    """Indices of the xs with |_wrap(xs - s)| < 2 cell, tried on s's cell and three either side."""
    near = (int(np.floor((_wrap(s) + np.pi) / cell)) + np.arange(-3, 4)) % xs.size
    return near[np.abs(_wrap(xs[near] - s)) < 2.0 * cell]


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
        corr[_near(xs, cell, s)] = -1.0
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
    cos, sin = cis(theta * last.times)
    resid = float(np.sum(np.abs(last.z_hat - r * (cos + 1j * sin)) ** 2))
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
        cos, sin = cis(np.outer(times, selected))
        B = cos + 1j * sin
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
            cos, sin = cis(selected[m] * times)
            B[:, m] = cos + 1j * sin
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


def _fit_start(p_hat, peaks):
    """Start of each peak's center from its bin j and its larger neighbour nb.

    One mode at theta = 2 pi (j + f) / M has the same numerator in every
    bin, so with h = pi / M and r = sqrt(p[nb] / p[j]) its half-angle
    offset is a = f h = arctan2(r sin h, 1 + r cos h), exact for a single
    mode.  r <= 1 at a local maximum, so f lies in [0, 1/2]; it is kept
    at or above _START_FLOOR bin, because a center exactly on a bin is
    stationary (every dK vanishes there).
    """
    M = p_hat.size
    h = np.pi / M
    right = (peaks + 1) % M
    up = p_hat[right] >= p_hat[peaks - 1]
    nb = np.where(up, right, peaks - 1)
    r = np.sqrt(p_hat[nb] / p_hat[peaks])
    f = np.maximum(np.arctan2(r * np.sin(h), 1.0 + r * np.cos(h)) / h, _START_FLOOR)
    return _wrap(_TWO_PI * (peaks + np.where(up, f, -f)) / M)


def fit_qft_histogram(p_hat, n, n_shots=None):
    """Fit the readout histogram with a small sum of squared kernels.

    Peaks are circular local maxima above max(3/n_shots, 1% of the top
    bin), thinned to a >= 2 bin separation, at most ten kept.  Each starts
    at ``_fit_start``'s two-bin estimate, and ``_kernel_fit`` moves all
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
    thetas, amps, resid, evals = _kernel_fit(p_hat, M, _fit_start(p_hat, kept))
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
