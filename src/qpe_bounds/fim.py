"""Fisher information of the two measurement families, one 2L x 2L matrix.

Parameters are the 2L reals (theta_1..theta_L, c_1..c_L) with the overlaps
treated as free coordinates; with ``overlaps_known`` every builder keeps
only the theta rows and returns the L x L theta-theta block, all that
1 / I_ii reads.  Both families build the matrix the same way,
sum over outcomes of grad p grad p^T / p: each chunk of outcomes is one
stack A of gradient columns scaled by the square roots of their weights,
and adds A A^T, which BLAS forms as a symmetric rank-k update, so the sum
is exactly symmetric with no symmetrization.  All builders return a
BlockFim; information is additive, so repeated shots scale it and
independent times sum it.  ``total_fim`` checks its campaign point by
``schedules._point``; ``bench.accounting`` turns the matrix into g0 and
the cost bound.  The Hadamard-test law is evaluated once, in ``_ht_law``,
whose outcome probabilities the samplers and ``ht_expectations`` read too.
"""

import logging
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
from .errors import DegenerateDistribution, PhaseOnlyFim, SingularFim, ZeroSecondMoment
from .schedules import _C, ProtocolKind, _point, realize, register_width
from .spectrum import _index_of

_SINGULAR_TOL = 1e-12
# nodes (times, records) per chunk of every per-time walk: the law's
# (L, chunk) tangents, the Fisher walk's (2L, chunk) stacks and _scan's
# (2 _SPREAD, chunk) spread stay in cache
_CHUNK_NODES = 1024
_TRUNC_NORM = _C * np.sqrt(_TWO_PI)


@dataclass
class BlockFim:
    """Symmetric 2L x 2L Fisher matrix; row i is mode i's theta, row L + i its c.

    The modes keep the spectrum's order, so a mode's label is its row.
    With ``overlaps_known`` the matrix is the L x L theta-theta block alone,
    and ``full()`` raises PhaseOnlyFim.
    """

    matrix: np.ndarray
    overlaps_known: bool = False

    @property
    def L(self):
        return self.matrix.shape[0] // (1 if self.overlaps_known else 2)

    @property
    def theta_theta(self):
        """The L x L theta-theta block, a view of the matrix."""
        return self.matrix[: self.L, : self.L]

    def full(self):
        if self.overlaps_known:
            raise PhaseOnlyFim("only the theta-theta block was built (overlaps known)")
        return self.matrix

    def index_of(self, label):
        return _index_of(self.L, label)

    def information(self, label):
        """I_ii of mode ``label`` as a float; SingularFim unless above 0 (so NaN too)."""
        entry = float(self.matrix.diagonal()[self.index_of(label)])  # theta rows come first
        if not entry > 0.0:
            raise SingularFim("diagonal Fisher entry is not positive")
        return entry

    def __add__(self, other):
        if self.overlaps_known != other.overlaps_known:
            raise PhaseOnlyFim("cannot add a theta-theta block to a full Fisher matrix")
        return BlockFim(self.matrix + other.matrix, self.overlaps_known)

    def __mul__(self, scalar):
        return BlockFim(float(scalar) * self.matrix, self.overlaps_known)

    __rmul__ = __mul__


def _ht_law(spectrum, times):
    """The Hadamard-test law at the times, flattened, _CHUNK_NODES at a time.

    Yields per chunk (t, tau, q, p): the chunk's times, the (L, nodes)
    tau = tan(theta t / 2) and q = 1 / (1 + tau^2), and the (2, nodes)
    outcome-0 probabilities (1 + C) / 2 = c.q and (1 + S) / 2 =
    c.((tau + 1)^2 q) / 2: sums of nonnegative terms, which neither cancel
    nor fall below 0; their 1 is sum c, which may pass 1 by a rounding.
    tau and q are contiguous views of one workspace (a strided view halves
    the ufuncs' speed), overwritten by the next chunk.  A time that is not
    finite raises ValueError before any chunk.
    """
    c = spectrum.overlaps
    half = 0.5 * spectrum.phases
    t = np.ravel(np.asarray(times, dtype=float))
    if not np.isfinite(t).all():
        raise ValueError(f"t={float(t[~np.isfinite(t)][0])!r} is not finite")
    L = c.size
    work = np.empty((3, L * min(t.size, _CHUNK_NODES)))
    for lo in range(0, t.size, _CHUNK_NODES):
        tj = t[lo : lo + _CHUNK_NODES]
        tau, q, u = chunk = work[:, : L * tj.size].reshape(3, L, tj.size)
        # einsum forms the outer product in about 3/4 of a broadcast multiply's time
        np.einsum("l,n->ln", half, tj, out=tau)
        np.tan(tau, out=tau)
        np.multiply(tau, tau, out=q)
        q += 1.0
        np.divide(1.0, q, out=q)
        np.add(tau, 1.0, out=u)
        u *= u
        u *= q
        p = c @ chunk[1:]
        p[1] *= 0.5
        yield tj, tau, q, p


def _ht_outcomes(spectrum, times):
    """The (2, n) outcome-0 probabilities of ``_ht_law`` at the n flattened times."""
    return np.hstack([np.empty((2, 0)), *(p for *_, p in _ht_law(spectrum, times))])


def ht_expectations(spectrum, t):
    """(C, S) = (sum_l c_l cos(t theta_l), sum_l c_l sin(t theta_l)).

    A scalar t gives two floats; an array of times gives two arrays, one
    value per time in flattened order, read from the outcome-0
    probabilities p of ``_ht_law`` as 2 p - sum c.
    """
    C, S = 2.0 * _ht_outcomes(spectrum, t) - spectrum.overlaps.sum()
    if np.ndim(t) == 0:
        return float(C[0]), float(S[0])
    return C, S


def _second_moment(spectrum):
    """sum_l c_l theta_l^2, the denominator of every aligned-time limit."""
    sm = spectrum.second_moment()
    if sm <= 0.0:
        raise ZeroSecondMoment("aligned-time limit undefined: sum_l c_l theta_l^2 = 0")
    return sm


def _ht_walk(spectrum, times, weights, overlaps_known=False):
    """The Fisher columns of ``_ht_law``'s chunks, one per node time.

    Yields per chunk (aC, aS, dC, dS): the (2L, nodes) gradients of C and
    S over (theta, c), or their L theta rows with ``overlaps_known``, each
    column scaled by sqrt(w / (1 - C^2)) and
    sqrt(w / (1 - S^2)), so the chunk's Fisher sum is
    aC aC^T + aS aS^T; and the walk's own 1 - C^2 and 1 - S^2 per node.
    A measurement with 1 - C^2 (or 1 - S^2) below _SINGULAR_TOL is
    deterministic: its column becomes its limit, (t c theta, 0) over
    sum_l c_l theta_l^2 before the scaling, so every Gram product counts
    it alike.  dC and dS are taken before that.

    The four arrays are views of workspaces allocated per walk, as the
    law's are: a caller takes what it needs from a chunk before the next.
    """
    c = spectrum.overlaps
    w = np.ravel(np.asarray(weights, dtype=float))
    L, cc = c.size, c[:, None]
    rows, n = (L if overlaps_known else 2 * L), min(w.size, _CHUNK_NODES)
    scratch, stacks, per_node = np.empty((2, L * n)), np.empty((2, rows * n)), np.empty((4, n))
    for (tj, tau, q, p), lo in zip(_ht_law(spectrum, times), range(0, w.size, _CHUNK_NODES)):
        m = tj.size
        wj = w[lo : lo + m]
        t2, u = scratch[:, : L * m].reshape(2, L, m)
        aC, aS = stacks[:, : rows * m].reshape(2, rows, m)
        dC, dS, sC, sS = per_node[:, :m]
        # 1 - cos = 2 tau^2 q and 1 -+ sin = (tau -+ 1)^2 q are sums of
        # nonnegative terms like the law's, so 1 - C^2 = (1 - C)(1 + C) does
        # not cancel; the naive 1 - C^2 cancels catastrophically near the
        # alignment times and poisons quadrature at large T
        np.multiply(tau, tau, out=t2)
        np.multiply(t2, q, out=u)
        np.matmul(c, u, out=dC)
        dC *= 4.0
        dC *= p[0]
        np.subtract(tau, 1.0, out=u)
        u *= u
        u *= q
        np.matmul(c, u, out=dS)
        dS *= 2.0 * p[1]

        # the column scales; a deterministic measurement becomes its limit
        # column, whose c-sector information diverges and is left out
        # (zero-weight times in every schedule)
        bad = (dC < _SINGULAR_TOL, dS < _SINGULAR_TOL)
        for d, s, b in zip((dC, dS), (sC, sS), bad):
            np.divide(wj, d, out=s, where=~b)
            if b.any():
                s[b] = wj[b] / _second_moment(spectrum)
            np.sqrt(s, out=s)

        # d C / d(theta, c) = (-c t sin, cos), d S / d(theta, c) = (c t cos,
        # sin); the 2 of sin = 2 tau q rides on the column scales
        half_sin = np.multiply(tau, q, out=u)
        cos = np.multiply(np.subtract(1.0, t2, out=t2), q, out=t2)
        if not overlaps_known:
            np.multiply(cos, sC, out=aC[L:])
            np.multiply(half_sin, 2.0 * sS, out=aS[L:])
        np.multiply(half_sin, -2.0 * tj * sC, out=aC[:L])
        np.multiply(cos, tj * sS, out=aS[:L])
        aC[:L] *= cc
        aS[:L] *= cc
        for a, s, b in zip((aC, aS), (sC, sS), bad):
            if b.any():
                a[:L, b] = np.outer(c * spectrum.phases, tj[b] * s[b])
                a[L:, b] = 0.0
        yield aC, aS, dC, dS


def _gram(aC, aS):
    """aC aC^T + aS aS^T: numpy takes BLAS's symmetric rank-k path for a
    same-buffer A A^T, so each product costs half a general one and is
    exactly symmetric."""
    return aC @ aC.T + aS @ aS.T


def _ht_blocks_weighted(spectrum, times, weights, overlaps_known=False):
    """Weighted sum over times of the per-time Hadamard-test Fisher matrix.

    The real and imaginary measurements are independent Bernoullis with
    success probabilities (1+C)/2 and (1+S)/2, so each time adds
    grad C grad C^T / (1 - C^2) + grad S grad S^T / (1 - S^2), the
    gradients taken over (theta, c).  At times where |C| or |S|
    reaches 1 that measurement counts as its limit column from
    ``_ht_walk``: theta-theta term c_i c_j t^2 theta_i theta_j /
    sum_l c_l theta_l^2 and no c-sector term.  Its partner (then |S| or
    |C| = 0) is counted as at any other time.

    ``times`` and ``weights`` have one shape, read flattened.  The times
    are walked _CHUNK_NODES at a time (``_ht_walk``), so the (2L, chunk)
    stacks stay in cache; the sum is one symmetric Gram product of the
    weight-scaled columns a chunk; with ``overlaps_known`` the stacks
    hold the L theta rows and the sum is the theta-theta block alone.
    """
    size = spectrum.L if overlaps_known else 2 * spectrum.L
    F = np.zeros((size, size))
    for aC, aS, _, _ in _ht_walk(spectrum, times, weights, overlaps_known):
        F += _gram(aC, aS)
    return BlockFim(F, overlaps_known)


def ht_fim_single(spectrum, t, overlaps_known=False):
    """Fisher matrix of the Bernoulli pair measured after evolution time t."""
    return _ht_blocks_weighted(spectrum, [t], [1.0], overlaps_known)


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
    info = ht_fim_single(spectrum, t, overlaps_known=True).theta_theta[pos, pos]
    return float(info / (c_i * t) ** 2)


def f_i_max(spectrum, label):
    """Aligned-time value of f_i: 1 + theta_i^2 / sum_l c_l theta_l^2.

    This is the limit of f_i at every singular time (|C| = 1 or
    |S| = 1) and the peak factor used in the cost sandwich.  It is not
    a pointwise bound on f_i for every spectrum.
    """
    return 1.0 + spectrum.phase(label) ** 2 / _second_moment(spectrum)


def qft_fim(spectrum, n, overlaps_known=False):
    """Fisher matrix of one n-ancilla transform-readout circuit.

    Outcome y has probability sum_l c_l D_M(theta_l - 2 pi y / M)^2 / M^2
    with M = 2^n; derivatives of the kernel are analytic, and the matrix,
    sum_y grad p(y) grad p(y)^T / p(y), is summed along ``register_chunks``
    (its derivative walk, _DERIVATIVE_CHUNK bins at a time) as one
    symmetric product A A^T a chunk, A = grad p / sqrt(p) built in one
    (2L, chunk) buffer, or its L rows c dK / sqrt(p) with ``overlaps_known``.
    """
    c = spectrum.overlaps
    L = c.size
    size = L if overlaps_known else 2 * L
    F = np.zeros((size, size))
    buf = None
    for v, dK in register_chunks(n, spectrum.phases, derivative=True):  # v = d p(y) / d c_l
        p = c @ v
        if np.min(p) < 1e-300:
            raise DegenerateDistribution("an outcome probability underflowed")
        if buf is None:  # the first chunk is the widest
            buf = np.empty((size, p.size))
        A = buf[:, : p.size]
        r = 1.0 / np.sqrt(p)
        # d p(y) / d(theta, c), each column over sqrt(p(y))
        np.multiply(dK, r, out=A[:L])
        A[:L] *= c[:, None]
        if not overlaps_known:
            np.multiply(v, r, out=A[L:])
        F += A @ A.T
    return BlockFim(F, overlaps_known)


_PANEL_NODES = 32
# the quadrature stops once the theta-theta block moves by less than this
_QUAD_REL_TOL = 1e-6
# the finest panel count on [-1, 1]; a level that would pass it raises
_MAX_PANELS = 65536
# a panel settles only if min(1 - C^2, 1 - S^2) stays above this on its nodes
_DIP_FLOOR = 1e-2
# the part of a panel's share of the stop that its error estimate may take
_SETTLE_SHARE = 0.1
_gl_nodes, _gl_weights = np.polynomial.legendre.leggauss(_PANEL_NODES)
# rows k = 0..3 and 28..31 of the discrete Legendre transform on the panel
# nodes: a row times the samples is the k-th Legendre coefficient of any
# polynomial of degree below 32, since Gauss-Legendre is exact to degree 63
_LEGENDRE_ROWS = (
    (np.arange(_PANEL_NODES)[:, None] + 0.5)
    * _gl_weights
    * np.polynomial.legendre.legvander(_gl_nodes, _PANEL_NODES - 1).T
)[np.r_[0:4, -4:0]]
_log = logging.getLogger(__name__)


def _panel_error(trace, half):
    """Error estimate of each panel's integral from its own node traces.

    ``trace`` is (panels, _PANEL_NODES), the theta-theta trace of each
    node's weighted Fisher term, so a row sums to its panel's integral.
    With head and tail the largest of the first four and of the last four
    Legendre coefficients of the integrand on the panel, the estimate is
    2 half tail min(tail / head, 1): the tail scaled by how fast the
    coefficients fall.
    """
    coef = np.abs((trace / (half * _gl_weights)) @ _LEGENDRE_ROWS.T)
    head, tail = coef[:, :4].max(axis=1), coef[:, 4:].max(axis=1)
    return 2.0 * half * np.minimum(tail, tail * tail / (head + 1e-300))


def _qmegs_level(spectrum, T, lefts, half, allowance=None, overlaps_known=False):
    """One level of the time average: the panels [l, l + 2 half] of x in [0, 1].

    A panel settles on its own nodes: when ``_panel_error`` is at most
    _SETTLE_SHARE of its share of the stop, ``allowance`` (_QUAD_REL_TOL
    times the largest theta-theta entry at the level before) times its
    width 2 half, and no node of it has min(1 - C^2, 1 - S^2) below
    _DIP_FLOOR.  ``allowance`` None settles nothing.  The error reads the
    theta-theta trace at each node, sum_l (aC_l^2 + aS_l^2): every mode
    shares the 1 - C^2 and 1 - S^2 denominators, so the trace sees each
    mode's resolution.  The decision is taken chunk by chunk inside one
    walk, so the settled panels' blocks are summed apart from the others
    with no second pass; an aligned node counts as ``_ht_walk``'s limit
    column in both.  Returns (settled, rest, done): the blocks of the
    settled panels and of the others, theta-theta alone with
    ``overlaps_known``, and per panel whether it settled.
    """
    L = spectrum.L
    nb = _PANEL_NODES
    x = (lefts + half)[:, None] + half * _gl_nodes[None, :]
    w = half * _gl_weights * 2.0 * np.exp(-0.5 * x**2) / _TRUNC_NORM
    size = L if overlaps_known else 2 * L
    blocks = np.zeros((2, size, size))
    done = []
    for aC, aS, dC, dS in _ht_walk(spectrum, T * x, w, overlaps_known):
        # a chunk is _CHUNK_NODES // nb = 32 whole panels
        rows = dC.size // nb
        ok = np.zeros(rows, dtype=bool)
        if allowance is not None:
            trace = np.einsum("ln,ln->n", aC[:L], aC[:L])
            trace += np.einsum("ln,ln->n", aS[:L], aS[:L])
            err = _panel_error(trace.reshape(rows, nb), half)
            low = np.minimum(dC, dS).reshape(rows, nb).min(axis=1)
            ok = (err <= _SETTLE_SHARE * allowance * 2.0 * half) & (low >= _DIP_FLOOR)
        done.append(ok)
        # one product per run of equal verdicts, on views: gathering the
        # columns cost more than the products
        cuts = [0, *(np.flatnonzero(ok[1:] != ok[:-1]) + 1), ok.size]
        for p0, p1 in zip(cuts[:-1], cuts[1:]):
            k, cols = int(not ok[p0]), slice(nb * p0, nb * p1)
            blocks[k] += _gram(aC[:, cols], aS[:, cols])
    return blocks[0], blocks[1], np.concatenate(done)


def _qmegs_expected_blocks(spectrum, T, overlaps_known=False):
    """E[Fisher matrix] under the truncated-normal time density, width T.

    Composite Gauss-Legendre on t = T x, from
    max(8, 2^ceil(log2(T max|theta| / 8))) panels on x in [-1, 1], about
    one per 8 radians of the fastest phase, each level halving every
    panel still in play, until successive levels agree on the whole
    theta-theta block to _QUAD_REL_TOL of its largest entry.  The
    per-time matrix is even in t (C is even, S odd but squared), so the
    line folds onto x in [0, 1]: the positive half of the same nodes,
    twice the density.
    From the second level on, a panel settles on its own nodes and
    leaves the doubling, its own block summed into the average
    (``_qmegs_level``): when the decay of its Legendre coefficients puts
    its error within a tenth of _QUAD_REL_TOL times the block's largest
    entry at the level before (known before the walk, so each chunk
    decides its panels) times the panel's share of [0, 1], and no node
    of it has min(1 - C^2, 1 - S^2) below _DIP_FLOOR: near |C| or
    |S| = 1 the integrand can carry spikes narrower than the node
    spacing, which a settled panel would never see.  The first level
    settles nothing, since the block's scale is not known before it.  A
    level in which every panel would settle settles none, so the only
    way out is the theta-theta stop.
    _MAX_PANELS caps the finest level's panel count on [-1, 1]; a start
    whose next level already passes it raises before any node is walked,
    since the first level alone cannot stop.  The integrand oscillates
    on the O(1) scale of the phase gaps regardless of T, so that count
    grows linearly with T where the integrand still moves; the cap
    accommodates T up to a few 10^4.
    Convergence is judged on theta-theta alone because it is the
    only block that is an ordinary convergent integral: at times where all
    cos(t theta_l) align (t = 0 always; interior times too when the phases
    share a rational lattice) the near-deterministic measurement makes the
    c-sector information diverge like 1/(t - t0)^2, so the cc average does
    not exist and the theta-c average is only a principal value.  Both are
    returned at the stopping resolution as regularized surrogates; the
    theta rows of the inverse are insensitive to the divergent direction,
    which only tightens the c-sector Schur complement toward its limit.
    With ``overlaps_known`` only the theta-theta block is built; the stop
    reads nothing else, so the levels are the same.
    One DEBUG record on the ``qpe_bounds.fim`` logger gives the start
    panel count, the levels run, the panels evaluated and settled, the
    finest panel count, the final relative change and the block built
    (``theta`` or ``full``).
    """
    L = spectrum.L
    # the start: about one panel per 8 radians of the fastest phase
    reach = T / 8.0 * float(np.max(np.abs(spectrum.phases)))
    if not reach <= _MAX_PANELS // 2:
        raise ArithmeticError("time-average quadrature did not converge")
    start = 8
    while start < reach:
        start *= 2
    panels, half = start, 1.0 / start
    lefts = np.arange(panels // 2) * (2.0 * half)
    _, rest, _ = _qmegs_level(spectrum, T, lefts, half, None, overlaps_known)
    F = np.zeros_like(rest)
    levels, evaluated, settled = 1, lefts.size, 0
    while True:
        if 2 * panels > _MAX_PANELS:
            raise ArithmeticError("time-average quadrature did not converge")
        panels, half = 2 * panels, 0.5 * half
        lefts = np.stack([lefts, lefts + 2.0 * half], axis=1).ravel()
        tt = rest[:L, :L]
        allowance = _QUAD_REL_TOL * (np.max(np.abs(F[:L, :L] + tt)) + 1e-300)
        done_F, rest, done = _qmegs_level(spectrum, T, lefts, half, allowance, overlaps_known)
        levels, evaluated = levels + 1, evaluated + lefts.size
        level = done_F[:L, :L] + rest[:L, :L]
        rel = np.max(np.abs(level - tt)) / (np.max(np.abs(F[:L, :L] + level)) + 1e-300)
        if rel < _QUAD_REL_TOL:
            F += done_F + rest
            break
        if done.all():
            # settling them all would end the doubling short of the stop
            done_F, rest, done = 0.0 * F, done_F + rest, np.zeros_like(done)
        F += done_F
        settled += int(done.sum())
        lefts = lefts[~done]
    _log.debug(
        "qmegs time average, T=%g: start %d panels, %d levels, %d panels evaluated, "
        "%d settled, finest %d panels, relative change %.3g, %s block",
        T, start, levels, evaluated, settled, panels, rel,
        "theta" if overlaps_known else "full",
    )
    return BlockFim(F, overlaps_known)


def total_fim(spectrum, kind, T, N_t, N_s, *, overlaps_known=False):
    """Fisher matrix accumulated over a whole campaign.

    Deterministic schedules are summed exactly; CSQPE averages over the
    integer times 1..T in closed sum; QMEGS uses the converged quadrature
    expectation.  ``overlaps_known`` builds the theta-theta block alone
    (the phases' Fisher matrix with the overlaps known), enough for g0
    and the bound but not for ``diag_ratio``.
    """
    kind, T, N_t, N_s = _point(kind, T, N_t, N_s)
    known = overlaps_known
    if kind == ProtocolKind.QFT_QPE:
        return float(N_s) * qft_fim(spectrum, register_width(T), known)
    if kind in (ProtocolKind.QCELS, ProtocolKind.RPE):
        times = realize(kind, T, N_t).times
        return float(N_s) * _ht_blocks_weighted(spectrum, times, np.ones_like(times), known)
    if kind == ProtocolKind.CSQPE:
        times = np.arange(1, T + 1, dtype=float)
        w = np.full(times.size, 1.0 / times.size)
        return float(N_s * N_t) * _ht_blocks_weighted(spectrum, times, w, known)
    return float(N_s * N_t) * _qmegs_expected_blocks(spectrum, T, known)
