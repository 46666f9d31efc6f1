"""Fisher information of the two measurement families, in (theta, c) blocks.

Parameters are the 2L reals (theta_1..theta_L, c_1..c_L) with the overlaps
treated as free coordinates.  All builders return a BlockFim; information
is additive, so repeated shots scale it and independent times sum it.
``bench.accounting`` turns these blocks into g0 and the cost bound.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

# dirichlet and dirichlet_derivative are no longer called here; the
# per-layer trace in perfbench/tracing.py wraps them by name in this module
from .dirichlet import (  # noqa: F401
    _TWO_PI,
    dirichlet,
    dirichlet_derivative,
    squared_kernel_grid,
)
from .errors import DegenerateDistribution, ZeroSecondMoment
from .schedules import ProtocolKind, _whole, realize
from .spectrum import _index_of

_SINGULAR_TOL = 1e-12
_TRUNC_NORM = float(erf(1.0 / np.sqrt(2.0))) * np.sqrt(_TWO_PI)


@dataclass
class BlockFim:
    """2L x 2L Fisher matrix stored as its three distinct L x L blocks."""

    theta_theta: np.ndarray
    theta_c: np.ndarray
    cc: np.ndarray
    labels: np.ndarray

    @property
    def L(self):
        return self.theta_theta.shape[0]

    def full(self):
        top = np.hstack([self.theta_theta, self.theta_c])
        bot = np.hstack([self.theta_c.T, self.cc])
        return np.vstack([top, bot])

    def index_of(self, label):
        return _index_of(self.labels, label)

    def __add__(self, other):
        if not np.array_equal(self.labels, other.labels):
            raise ValueError("cannot add Fisher blocks with different mode labels")
        return BlockFim(
            self.theta_theta + other.theta_theta,
            self.theta_c + other.theta_c,
            self.cc + other.cc,
            self.labels,
        )

    def __mul__(self, scalar):
        s = float(scalar)
        return BlockFim(
            s * self.theta_theta, s * self.theta_c, s * self.cc, self.labels
        )

    __rmul__ = __mul__


def ht_expectations(spectrum, t):
    """(C, S) = (sum_l c_l cos(t theta_l), sum_l c_l sin(t theta_l)).

    A scalar t gives two floats; an array of times gives two arrays.
    """
    arg = np.outer(t, spectrum.phases)
    C = np.cos(arg) @ spectrum.overlaps
    S = np.sin(arg) @ spectrum.overlaps
    if np.ndim(t) == 0:
        return float(C[0]), float(S[0])
    return C, S


def _second_moment(spectrum):
    """sum_l c_l theta_l^2, the denominator of every aligned-time limit."""
    sm = spectrum.second_moment()
    if sm <= 0.0:
        raise ZeroSecondMoment("aligned-time limit undefined: sum_l c_l theta_l^2 = 0")
    return sm


_BLOCK_CHUNK = 1 << 16


def _ht_blocks_weighted(spectrum, times, weights):
    """Weighted sum over times of the per-time Hadamard-test Fisher blocks.

    The real and imaginary measurements are independent Bernoullis with
    success probabilities (1+C)/2 and (1+S)/2.  At times where |C| or |S|
    reaches 1 that measurement's theta-theta term takes its finite limit
    c_i c_j t^2 theta_i theta_j / sum_l c_l theta_l^2, and its partner
    (then |S| or |C| = 0) is counted as at any other time; the c-sector
    information of the degenerate measurement diverges there and is
    omitted (such times carry zero weight in every schedule expectation).
    Long time lists are processed in chunks to bound memory.
    """
    th = spectrum.phases
    c = spectrum.overlaps
    t = np.asarray(times, dtype=float)
    w = np.asarray(weights, dtype=float)
    L = th.size

    tt = np.zeros((L, L))
    tc = np.zeros((L, L))
    cc = np.zeros((L, L))
    wt2 = 0.0
    for start in range(0, t.size, _BLOCK_CHUNK):
        tj = t[start : start + _BLOCK_CHUNK]
        wj = w[start : start + _BLOCK_CHUNK]
        # half-angle forms keep 1 -|C| and 1 -|S| as sums of nonnegative
        # terms; the naive 1 - C^2 cancels catastrophically near the
        # alignment times and poisons quadrature at large T
        SH = np.sin(np.outer(th, 0.5 * tj))
        CH = np.cos(np.outer(th, 0.5 * tj))
        S_mat = 2.0 * SH * CH
        K_mat = 1.0 - 2.0 * SH**2
        dC = (c @ (2.0 * SH**2)) * (c @ (2.0 * CH**2))
        dS = (c @ (SH - CH) ** 2) * (c @ (SH + CH) ** 2)
        badC = dC < _SINGULAR_TOL
        badS = dS < _SINGULAR_TOL
        wC = np.where(badC, 0.0, wj / np.where(badC, 1.0, dC))
        wS = np.where(badS, 0.0, wj / np.where(badS, 1.0, dS))

        A = c[:, None] * tj[None, :] * S_mat
        B = c[:, None] * tj[None, :] * K_mat
        tt += (A * wC) @ A.T + (B * wS) @ B.T
        tc += -(A * wC) @ K_mat.T + (B * wS) @ S_mat.T
        cc += (K_mat * wC) @ K_mat.T + (S_mat * wS) @ S_mat.T
        if badC.any() or badS.any():
            wt2 += np.sum(wj[badC] * tj[badC] ** 2)
            wt2 += np.sum(wj[badS] * tj[badS] ** 2)

    if wt2:
        v = c * th
        tt = tt + wt2 * np.outer(v, v) / _second_moment(spectrum)

    tt = 0.5 * (tt + tt.T)
    cc = 0.5 * (cc + cc.T)
    return BlockFim(tt, tc, cc, spectrum.labels)


def ht_fim_single(spectrum, t):
    """Fisher blocks of the Bernoulli pair measured after evolution time t."""
    return _ht_blocks_weighted(spectrum, [t], [1.0])


def f_i(spectrum, label, t):
    """Information gain factor of mode i at time t: I_ii(t) / (c_i t)^2.

    I_ii(t) is the theta-theta diagonal of ht_fim_single, so f_i is
    sin^2(t theta_i)/(1 - C^2) + cos^2(t theta_i)/(1 - S^2) with the
    singular points filled by their limits.  The value is >= 1 for every
    t, is f_i_max at t = 0 and at every aligned time where |C| = 1 or
    |S| = 1, and at generic times can also exceed f_i_max.  The mode
    needs c_i > 0.
    """
    # below |t| = 1e-8 every spectrum is at its C = 1 limit and f_i is
    # f_i_max to O(pi^2 t^2) < 1e-15, while (c_i t)^2 can underflow
    if abs(t) < 1e-8:
        return f_i_max(spectrum, label)
    pos = spectrum.index_of(label)
    c_i = spectrum.overlaps[pos]
    if c_i == 0.0:
        raise ValueError("the gain factor of a mode with zero overlap is undefined")
    return float(ht_fim_single(spectrum, t).theta_theta[pos, pos] / (c_i * t) ** 2)


def f_i_max(spectrum, label):
    """Aligned-time value of f_i: 1 + theta_i^2 / sum_l c_l theta_l^2.

    This is the limit of f_i at every singular time (|C| = 1 or
    |S| = 1) and the peak factor used in the cost sandwich.  It is not
    a pointwise bound on f_i for every spectrum.
    """
    return 1.0 + spectrum.phase(label) ** 2 / _second_moment(spectrum)


def qft_fim(spectrum, n):
    """Fisher blocks of one n-ancilla transform-readout circuit.

    Outcome y has probability sum_l c_l D_M(theta_l - 2 pi y / M)^2 / M^2
    with M = 2^n; derivatives of the kernel are analytic.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    M = 2**int(n)
    c = spectrum.overlaps
    v, dK = squared_kernel_grid(M, spectrum.phases, derivative=True)  # v = d p(y) / d c_l

    p = c @ v
    if np.min(p) < 1e-300:
        raise DegenerateDistribution("an outcome probability underflowed")

    u = c[:, None] * dK  # d p(y) / d theta_l
    w = 1.0 / p
    tt = (u * w) @ u.T
    tc = (u * w) @ v.T
    cc = (v * w) @ v.T
    tt = 0.5 * (tt + tt.T)
    cc = 0.5 * (cc + cc.T)
    return BlockFim(tt, tc, cc, spectrum.labels)


_PANEL_NODES = 32
_gl_nodes, _gl_weights = np.polynomial.legendre.leggauss(_PANEL_NODES)


def _qmegs_expected_blocks(spectrum, T, rel_tol=1e-6, max_panels=65536):
    """E[Fisher blocks] under the truncated-normal time density, width T.

    Composite Gauss-Legendre on t = T x, x in [-1, 1], doubling the panel
    count until successive estimates of the theta-theta block agree to
    rel_tol.  The integrand oscillates on the O(1) scale of the phase gaps
    regardless of T, so the panel count needed to resolve it grows linearly
    with T; the cap accommodates T up to a few times 10^4.  Convergence is judged on theta-theta alone because it is the
    only block that is an ordinary convergent integral: at times where all
    cos(t theta_l) align (t = 0 always; interior times too when the phases
    share a rational lattice) the near-deterministic measurement makes the
    c-sector information diverge like 1/(t - t0)^2, so the cc average does
    not exist and the theta-c average is only a principal value.  Both are
    returned at the stopping resolution as regularized surrogates; the
    theta rows of the inverse are insensitive to the divergent direction,
    which only tightens the c-sector Schur complement toward its limit.
    """
    prev = None
    panels = 8
    while panels <= max_panels:
        edges = np.linspace(-1.0, 1.0, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        x = (mid[:, None] + half * _gl_nodes[None, :]).ravel()
        wx = np.broadcast_to(half * _gl_weights, (panels, _PANEL_NODES)).ravel()
        dens = np.exp(-0.5 * x**2) / _TRUNC_NORM
        blocks = _ht_blocks_weighted(spectrum, T * x, wx * dens)
        if prev is not None:
            new = blocks.theta_theta
            scale = np.max(np.abs(new)) + 1e-300
            rel = np.max(np.abs(new - prev.theta_theta)) / scale
            if rel < rel_tol:
                return blocks
        prev = blocks
        panels *= 2
    raise ArithmeticError("time-average quadrature did not converge")


def total_fim(spectrum, kind, T, N_t, N_s):
    """Fisher blocks accumulated over a whole campaign.

    Deterministic schedules are summed exactly; CSQPE averages over the
    integer times 1..T in closed sum; QMEGS uses the converged quadrature
    expectation.  QFT-QPE needs T = 2^n - 1; it and RPE need N_t = 1.
    """
    kind = ProtocolKind(kind)
    N_t, N_s = _whole("N_t", N_t), _whole("N_s", N_s)
    if N_s < 1 or N_t < 1:
        raise ValueError("N_s and N_t must be positive")
    if kind in (ProtocolKind.QFT_QPE, ProtocolKind.RPE) and N_t != 1:
        raise ValueError(f"{kind.value} uses N_t = 1")
    if kind == ProtocolKind.QFT_QPE:
        M = _whole("T", T) + 1
        if M < 2 or (M & (M - 1)) != 0:
            raise ValueError("QFT-QPE needs T = 2^n - 1")
        return float(N_s) * qft_fim(spectrum, int(np.log2(M)))
    if kind in (ProtocolKind.QCELS, ProtocolKind.RPE):
        times = realize(kind, T, N_t).times
        return float(N_s) * _ht_blocks_weighted(spectrum, times, np.ones_like(times))
    if kind == ProtocolKind.CSQPE:
        times = np.arange(1, _whole("T", T) + 1, dtype=float)
        w = np.full(times.size, 1.0 / times.size)
        return float(N_s * N_t) * _ht_blocks_weighted(spectrum, times, w)
    if kind == ProtocolKind.QMEGS:
        return float(N_s * N_t) * _qmegs_expected_blocks(spectrum, T)
    raise ValueError(f"unknown protocol {kind!r}")
