"""Fisher information of the two measurement families, one 2L x 2L matrix.

Parameters are the 2L reals (theta_1..theta_L, c_1..c_L) with the overlaps
treated as free coordinates.  Both families build the matrix the same way,
sum over outcomes of grad p grad p^T / p, from one stack of gradients.  All
builders return a BlockFim; information is additive, so repeated shots
scale it and independent times sum it.  ``total_fim`` checks its campaign
point by ``schedules._point``; ``bench.accounting`` turns the matrix into
g0 and the cost bound.
"""

from dataclasses import dataclass

import numpy as np

# dirichlet and dirichlet_derivative are no longer called here; the
# per-layer trace in perfbench/tracing.py wraps them by name in this module
from .dirichlet import (  # noqa: F401
    _TWO_PI,
    dirichlet,
    dirichlet_derivative,
    register_chunks,
)
from .errors import DegenerateDistribution, ZeroSecondMoment
from .schedules import _C, ProtocolKind, _point, realize, register_width
from .spectrum import _index_of

_SINGULAR_TOL = 1e-12
# nodes per chunk of _ht_blocks_weighted: its (2L, chunk) arrays stay in cache
_CHUNK_NODES = 1024
_TRUNC_NORM = _C * np.sqrt(_TWO_PI)


@dataclass
class BlockFim:
    """Symmetric 2L x 2L Fisher matrix; row i is mode i's theta, row L + i its c.

    The modes keep the spectrum's order, so a mode's label is its row.
    """

    matrix: np.ndarray

    @property
    def L(self):
        return self.matrix.shape[0] // 2

    @property
    def theta_theta(self):
        """The L x L theta-theta block, a view of the matrix."""
        return self.matrix[: self.L, : self.L]

    def full(self):
        return self.matrix

    def index_of(self, label):
        return _index_of(self.L, label)

    def __add__(self, other):
        return BlockFim(self.matrix + other.matrix)

    def __mul__(self, scalar):
        return BlockFim(float(scalar) * self.matrix)

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


def _ht_blocks_weighted(spectrum, times, weights, offsets=(0.0,)):
    """Weighted sum over times of the per-time Hadamard-test Fisher matrix.

    The real and imaginary measurements are independent Bernoullis with
    success probabilities (1+C)/2 and (1+S)/2, so each time adds
    grad C grad C^T / (1 - C^2) + grad S grad S^T / (1 - S^2), the
    gradients taken over (theta, c).  At times where |C| or |S|
    reaches 1 that measurement's theta-theta term takes its finite limit
    c_i c_j t^2 theta_i theta_j / sum_l c_l theta_l^2, and its partner
    (then |S| or |C| = 0) is counted as at any other time; the c-sector
    information of the degenerate measurement diverges there and is
    omitted (such times carry zero weight in every schedule expectation).

    The nodes are the outer sum ``times[:, None] + offsets[None, :]`` of
    two 1-D arrays, in row-major order, and ``weights`` has that shape or
    its flattened one.  The half angles theta (a + b) / 2 come by angle
    addition from two small sin/cos tables, one over the offsets b and
    one per chunk over the times a, so sin and cos run on 1/offsets.size
    of the nodes.  With the default single offset 0 (sin b = 0, cos b = 1)
    they are exactly the sin and cos of the times.  The nodes are walked
    in whole rows, about _CHUNK_NODES at a time, so the (2L, chunk) stacks
    stay in cache.
    """
    th = spectrum.phases
    c = spectrum.overlaps
    a = np.asarray(times, dtype=float)
    b = np.asarray(offsets, dtype=float)
    w = np.asarray(weights, dtype=float).reshape(a.size, b.size)
    L = th.size
    # sin(x + y) = (sin x, cos x) . (cos y, sin y) and
    # cos(x + y) = (sin x, cos x) . (-sin y, cos y): per phase, one
    # (rows, 2) by (2, offsets) product each, about ten times faster than
    # the same sums broadcast elementwise
    hb = np.outer(th, 0.5 * b)
    sb, cb = np.sin(hb), np.cos(hb)
    to_sin = np.stack([cb, sb], axis=1)
    to_cos = np.stack([-sb, cb], axis=1)

    F = np.zeros((2 * L, 2 * L))
    wt2 = 0.0
    rows = max(1, _CHUNK_NODES // b.size)
    for start in range(0, a.size, rows):
        aj = a[start : start + rows]
        tj = (aj[:, None] + b).ravel()
        wj = w[start : start + rows].ravel()
        ha = np.outer(th, 0.5 * aj)
        tab = np.stack([np.sin(ha), np.cos(ha)], axis=2)
        # half-angle forms keep 1 -|C| and 1 -|S| as sums of nonnegative
        # terms; the naive 1 - C^2 cancels catastrophically near the
        # alignment times and poisons quadrature at large T
        SH = (tab @ to_sin).reshape(L, tj.size)
        CH = (tab @ to_cos).reshape(L, tj.size)
        dC = (c @ (2.0 * SH**2)) * (c @ (2.0 * CH**2))
        dS = (c @ (SH - CH) ** 2) * (c @ (SH + CH) ** 2)
        badC = dC < _SINGULAR_TOL
        badS = dS < _SINGULAR_TOL
        wC = np.where(badC, 0.0, wj / np.where(badC, 1.0, dC))
        wS = np.where(badS, 0.0, wj / np.where(badS, 1.0, dS))

        # d C / d(theta, c) = (-c t sin, cos), d S / d(theta, c) = (c t cos,
        # sin), written in place: stacking copies made QMEGS at T = 400 ~10% slower
        gC = np.empty((2 * L, tj.size))
        gS = np.empty((2 * L, tj.size))
        sin, cos = gS[L:], gC[L:]
        np.multiply(2.0 * SH, CH, out=sin)
        np.subtract(1.0, 2.0 * SH**2, out=cos)
        ct = c[:, None] * tj
        np.multiply(-ct, sin, out=gC[:L])
        np.multiply(ct, cos, out=gS[:L])
        F += (gC * wC) @ gC.T + (gS * wS) @ gS.T
        if badC.any() or badS.any():
            wt2 += np.sum(wj[badC] * tj[badC] ** 2)
            wt2 += np.sum(wj[badS] * tj[badS] ** 2)

    if wt2:
        v = c * th
        F[:L, :L] += wt2 * np.outer(v, v) / _second_moment(spectrum)
    return BlockFim(0.5 * (F + F.T))


def ht_fim_single(spectrum, t):
    """Fisher matrix of the Bernoulli pair measured after evolution time t."""
    if not np.isfinite(t):
        raise ValueError(f"t={t!r} is not finite")
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
    """Fisher matrix of one n-ancilla transform-readout circuit.

    Outcome y has probability sum_l c_l D_M(theta_l - 2 pi y / M)^2 / M^2
    with M = 2^n; derivatives of the kernel are analytic, and the matrix,
    sum_y grad p(y) grad p(y)^T / p(y), is summed along ``register_chunks``.
    """
    c = spectrum.overlaps
    F = np.zeros((2 * c.size, 2 * c.size))
    for v, dK in register_chunks(n, spectrum.phases, derivative=True):  # v = d p(y) / d c_l
        p = c @ v
        if np.min(p) < 1e-300:
            raise DegenerateDistribution("an outcome probability underflowed")
        D = np.vstack([c[:, None] * dK, v])  # d p(y) / d(theta, c)
        F += (D / p) @ D.T
    return BlockFim(0.5 * (F + F.T))


_PANEL_NODES = 32
# the quadrature stops once the theta-theta block moves by less than this
_QUAD_REL_TOL = 1e-6
# the panel count on [-1, 1] at which the doubling gives up
_MAX_PANELS = 65536
_gl_nodes, _gl_weights = np.polynomial.legendre.leggauss(_PANEL_NODES)


def _qmegs_expected_blocks(spectrum, T):
    """E[Fisher matrix] under the truncated-normal time density, width T.

    Composite Gauss-Legendre on t = T x, doubling the panel count on
    x in [-1, 1] until successive estimates of the theta-theta block agree
    to _QUAD_REL_TOL.  The per-time matrix is even in t (C is even, S odd
    but squared), so each level folds the line onto x in [0, 1]: half the
    panels, the positive half of the same nodes, twice the density.
    Each level is one _ht_blocks_weighted call: the panel centres T mid
    are its times, the _PANEL_NODES Gauss-Legendre offsets T half g_k its
    offsets, and the quadrature weight times the density its (panels,
    _PANEL_NODES) weights, so sin and cos run on the panel centres and
    the offsets only.  The integrand oscillates on the O(1) scale of the
    phase gaps regardless of T, so the panel count needed to resolve it
    grows linearly with T; the cap accommodates T up to a few times 10^4.
    Convergence is judged on theta-theta alone because it is the
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
    while panels <= _MAX_PANELS:
        edges = np.linspace(0.0, 1.0, panels // 2 + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        x = mid[:, None] + half * _gl_nodes[None, :]
        dens = 2.0 * np.exp(-0.5 * x**2) / _TRUNC_NORM
        blocks = _ht_blocks_weighted(
            spectrum, T * mid, half * _gl_weights * dens, offsets=T * half * _gl_nodes
        )
        if prev is not None:
            new = blocks.theta_theta
            scale = np.max(np.abs(new)) + 1e-300
            rel = np.max(np.abs(new - prev.theta_theta)) / scale
            if rel < _QUAD_REL_TOL:
                return blocks
        prev = blocks
        panels *= 2
    raise ArithmeticError("time-average quadrature did not converge")


def total_fim(spectrum, kind, T, N_t, N_s):
    """Fisher matrix accumulated over a whole campaign.

    Deterministic schedules are summed exactly; CSQPE averages over the
    integer times 1..T in closed sum; QMEGS uses the converged quadrature
    expectation.
    """
    kind, T, N_t, N_s = _point(kind, T, N_t, N_s)
    if kind == ProtocolKind.QFT_QPE:
        return float(N_s) * qft_fim(spectrum, register_width(T))
    if kind in (ProtocolKind.QCELS, ProtocolKind.RPE):
        times = realize(kind, T, N_t).times
        return float(N_s) * _ht_blocks_weighted(spectrum, times, np.ones_like(times))
    if kind == ProtocolKind.CSQPE:
        times = np.arange(1, T + 1, dtype=float)
        w = np.full(times.size, 1.0 / times.size)
        return float(N_s * N_t) * _ht_blocks_weighted(spectrum, times, w)
    return float(N_s * N_t) * _qmegs_expected_blocks(spectrum, T)
