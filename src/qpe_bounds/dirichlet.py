"""Dirichlet kernel D_M(x) = sin(Mx/2)/sin(x/2), its derivative, and grid sums.

Evaluation reduces x to delta = x - 2 pi k with delta in [-pi, pi].  On that
interval sin(delta/2) stays away from zero except at delta = 0, so the ratio
form M sinc(M delta / 2 pi) / sinc(delta / 2 pi) is stable everywhere and
takes the limit +-M at the shared zeros automatically.  The sign picked up
by the reduction is (-1)^((M-1) k).

On the M-point grid x = theta - 2 pi y / M every numerator is +-sin(M theta/2),
so one scalar sine per theta and a half-angle table give the squared kernel
(``squared_kernel_grid``); every register reader walks it by ``register_chunks``.

``cis`` is the unit-circle kernel for the Hadamard-test estimators: cos
and sin of a whole array from one tangent of the half angle.  The
Hadamard-test model reads the same tangent in one place, ``fim._ht_law``,
whose outcome probabilities the samplers, C and S and the Fisher walk share.
"""

import functools
import math

import numpy as np

from .schedules import _count, _width

_TWO_PI = 2.0 * np.pi
# pi in two parts for the reduction theta/2 = pi j / M + d: _PI_HI keeps 26
# bits, so j * _PI_HI is exact for |j| < 2^27, and _PI_LO carries the rest of
# pi, including the rounding of math.pi itself
_PI_HI = math.ldexp(round(math.ldexp(math.pi, 24)), -24)
_PI_LO = (math.pi - _PI_HI) + 1.2246467991473532e-16
# a cached half-angle table holds 2M bins, and two are kept because sweeps
# alternate two registers (T = 1023 and 16383); larger grids build their slice
_TABLE_BINS = 1 << 20
# bins per (L, chunk) kernel stack of the register walk ``register_chunks``;
# the derivative walk, which ``fim.qft_fim`` stacks into a (2L, chunk) Gram
# factor, takes fewer so that stack stays in a 2 MB L2.  The walks without
# derivative keep the larger chunk, which makes fewer row calls (one per
# phase per chunk) and fewer binomial and multinomial calls in
# ``simulate.sample_qft``
_CHUNK = 1 << 15
_DERIVATIVE_CHUNK = 1 << 12


def cis(x):
    """(cos x, sin x) of a float array x, from one tangent of the half angle.

    With tau = tan(x/2), cos x = (1 - tau^2) / (1 + tau^2) and
    sin x = 2 tau / (1 + tau^2), formed in place: three arrays in all.
    numpy dispatches float64 tan to SIMD where the CPU has it, several
    times faster than its scalar sin and cos; elsewhere this is one libm
    call in place of two, or of a complex exp.  Both parts stay within
    2.3e-16 absolute of np.cos and np.sin over |x| <= 1e7, next to every
    multiple of pi/2 included, sin keeps relative precision near 0, and
    neither exceeds 1 in magnitude.  NaN gives NaN.

    The precision is absolute: 1 - tau^2 cancels, so cos is not accurate
    relative to itself next to odd multiples of pi/2.  That is why
    ``_reduced_sincos`` keeps np.sin and np.cos: its half-angle table
    needs both parts to full relative precision.
    """
    tau = np.multiply(x, 0.5)
    np.tan(tau, out=tau)
    q = np.multiply(tau, tau)
    cos = np.subtract(1.0, q)
    q += 1.0
    cos /= q
    tau += tau
    tau /= q
    return cos, tau


def _reduce(x):
    x = np.asarray(x, dtype=float)
    k = np.rint(x / _TWO_PI)
    delta = x - _TWO_PI * k
    return delta, k.astype(np.int64)


def _sign(m, k):
    return np.where(((m - 1) * k) % 2 == 0, 1.0, -1.0)


def dirichlet(m, x):
    """Kernel value; scalar in, scalar out."""
    delta, k = _reduce(x)
    val = m * np.sinc(m * delta / _TWO_PI) / np.sinc(delta / _TWO_PI)
    out = _sign(m, k) * val
    return float(out) if np.isscalar(x) else out


def dirichlet_derivative(m, x):
    """d/dx of the kernel, with the double zeros filled by a series.

    The quotient-rule form loses all significance for |delta| << 1/M
    (two O(M/delta) terms cancel to O(M^3 delta)), so inside
    |delta| < 1e-3/M the quartic Taylor expansion around delta = 0 is
    used instead; at the switch point both branches are good to ~1e-9
    of the derivative-sum scale.
    """
    delta, k = _reduce(x)
    half = 0.5 * delta
    small = np.abs(delta) < 1e-3 / m

    sh = np.where(small, 1.0, np.sin(half))  # placeholder value under the mask
    num = 0.5 * m * np.cos(m * half) * sh - 0.5 * np.sin(m * half) * np.cos(half)
    general = num / sh**2

    c4 = 7.0 / 360.0 - m**2 / 36.0 + m**4 / 120.0
    series = m * (-(m**2 - 1.0) * delta / 12.0 + c4 * delta**3 / 4.0)

    out = _sign(m, k) * np.where(small, series, general)
    return float(out) if np.isscalar(x) else out


def _grid(m, theta):
    y = np.arange(m, dtype=float)
    return np.asarray(theta, dtype=float) - _TWO_PI * y / m


def squared_kernel_sum(m, theta):
    """sum_y D_M(theta - 2 pi y / M)^2 over the M-point grid (equals M^2)."""
    return float(np.sum(dirichlet(m, _grid(m, theta)) ** 2))


def squared_derivative_sum(m, theta):
    """sum_y D_M'(theta - 2 pi y / M)^2 over the M-point grid."""
    return float(np.sum(dirichlet_derivative(m, _grid(m, theta)) ** 2))


def _reduced_sincos(m, i):
    """sin and cos of pi i / M, each angle first moved into [-pi/2, pi/2).

    Moving by a multiple of pi flips the sine and the cosine together, a
    sign that the squared kernel and its derivative do not see; the reduced
    angles keep full relative precision next to every multiple of pi.
    """
    r = (i + m // 2) % m - m // 2
    a = np.pi * r / m
    return np.sin(a), np.cos(a)


@functools.lru_cache(maxsize=2)
def _half_angle_table(m):
    sin, cos = _reduced_sincos(m, np.arange(2 * m))
    sin.setflags(write=False)
    cos.setflags(write=False)
    return sin, cos


def _half_angles(m, start, stop):
    if 2 * m <= _TABLE_BINS:
        sin, cos = _half_angle_table(m)
        return sin[start:stop], cos[start:stop]
    return _reduced_sincos(m, np.arange(start, stop))


def _kernel_row(m, theta, lo, hi, K, dK, work):
    # theta/2 = pi j / M + d with |d| <= pi / 2M; bin y then sits at half
    # angle d - pi (y - j) / M, and only bin j can be near-aligned.  The
    # row goes into K (and dK); work holds three rows of scratch
    j = round(theta * m / _TWO_PI)
    d = (0.5 * theta - j * _PI_HI / m) - j * _PI_LO / m
    j %= m
    sd, cd = math.sin(d), math.cos(d)
    st, ct = _half_angles(m, m - j + lo, m - j + hi)
    s, s2, c = work
    np.multiply(ct, sd, out=s)
    s -= np.multiply(st, cd, out=s2)
    at = j - lo
    aligned = 0 <= at < hi - lo
    if aligned:
        s[at] = 1.0  # placeholder, the bin is filled from the scalar form below
        dn = math.sin(m * d) / (m * math.sin(d)) if d else 1.0  # D_M(2d) / M
    sh2 = math.sin(0.5 * m * theta) ** 2
    np.multiply(s, s, out=s2)
    np.divide(sh2 / (m * m), s2, out=K)
    if aligned:
        K[at] = dn * dn
    if dK is None:
        return None
    # dK = [(M/2) sin(M theta) s - sh2 c] / (M^2 s2 s), c = cd ct + sd st
    np.multiply(ct, cd, out=c)
    c += np.multiply(st, sd, out=dK)
    c *= sh2
    np.multiply(s, 0.5 * m * math.sin(m * theta), out=dK)
    dK -= c
    s2 *= m * m
    s2 *= s
    dK /= s2
    # the aligned bin's dK is left for the caller to fill from (at, d, dn)
    return (at, d, dn) if aligned else None


def _kernel_rows(m, thetas, lo, hi, K, dK, work):
    """Fill row i of K (and of dK, unless None) with the kernel of thetas[i]."""
    hits = []
    for i, t in enumerate(thetas):
        fill = _kernel_row(m, t, lo, hi, K[i], None if dK is None else dK[i], work)
        if fill:
            hits.append((i, *fill))
    if hits:
        i, at, d, dn = (np.array(part) for part in zip(*hits))
        dK[i, at] = 2.0 * dn * dirichlet_derivative(m, 2.0 * d) / m


def squared_kernel_grid(m, theta, derivative=False):
    """K(theta, y) = D_M(theta - 2 pi y / M)^2 / M^2 on the M bins; m is a count.

    With s, c = sin, cos(theta/2 - pi y / M) the closed forms are
    K = sin^2(M theta/2) / (M^2 s^2) and
    dK/dtheta = [(M/2) sin(M theta) s - sin^2(M theta/2) c] / (M^2 s^3);
    s and c come from a cached half-angle table by angle subtraction, so no
    vector transcendental is evaluated per theta (grids above 2^19 bins
    build their angles per call).  The one bin nearest
    theta, where s can vanish, takes the scalar ratio (limit 1) and the
    series of ``dirichlet_derivative``, one call for all such bins of the
    grid.  The result has shape theta.shape + (M,); with ``derivative`` it
    is the pair (K, dK/dtheta).  It takes no slice: ``register_chunks`` is
    the one walk over a register's bins a chunk at a time.
    """
    m = _count("m", m)
    theta = np.asarray(theta, dtype=float)
    shape = theta.shape + (m,)
    K = np.empty((theta.size, m))
    dK = np.empty_like(K) if derivative else None
    _kernel_rows(m, theta.ravel().tolist(), 0, m, K, dK, np.empty((3, m)))
    return (K.reshape(shape), dK.reshape(shape)) if derivative else K.reshape(shape)


def register_chunks(n, theta, derivative=False):
    """``squared_kernel_grid`` on the 2^n bins, _CHUNK at a time; n is checked at the call.

    With ``derivative`` the walk takes _DERIVATIVE_CHUNK bins at a time.
    Each chunk is written into one K (and dK) workspace allocated per
    walk: the next chunk overwrites it, so a caller takes what it needs
    from a chunk before it asks for the next.
    """
    M = 2 ** _width(n)
    theta = np.asarray(theta, dtype=float)
    # M and the chunk are powers of two, so every chunk has one width
    width = min(_DERIVATIVE_CHUNK if derivative else _CHUNK, M)
    shape = theta.shape + (width,)

    def walk():
        thetas = theta.ravel().tolist()
        K = np.empty((len(thetas), width))
        dK = np.empty_like(K) if derivative else None
        work = np.empty((3, width))
        for lo in range(0, M, width):
            _kernel_rows(M, thetas, lo, lo + width, K, dK, work)
            yield (K.reshape(shape), dK.reshape(shape)) if derivative else K.reshape(shape)

    return walk()
