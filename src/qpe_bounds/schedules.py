"""Campaign points, measurement-time schedules and their cost constants.

``_point`` holds every rule for a campaign point (kind, T, N_t, N_s); each
entry point that takes one checks it there.  Each Hadamard-test protocol
is characterized by how it draws evolution times t_k up to a cutoff T.
Two scalars summarize a schedule family: gamma, the linear total-cost
constant (t_total = gamma * N_s * N_t * T), and chi, the normalized
second moment E[t^2]/T^2.
"""

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral, Real

import numpy as np

from .errors import NoLinearCostForm, RpeRequiresPowerOfTwo


class ProtocolKind(Enum):
    QFT_QPE = "qft"
    QMEGS = "qmegs"
    CSQPE = "csqpe"
    QCELS = "qcels"
    RPE = "rpe"


# normalization of the standard normal truncated to [-1, 1]
_C = math.erf(1.0 / math.sqrt(2.0))
# the widest transform-readout register
_MAX_N = 26


@dataclass
class Schedule:
    kind: ProtocolKind
    T: float
    N_t: int
    times: np.ndarray


def _whole(name, value, error=ValueError):
    """A horizon or count as an int; a fraction is rejected, never truncated.

    Booleans and non-numbers (such as the string "4") are rejected too,
    never coerced.
    """
    number = isinstance(value, Real) and not isinstance(value, bool)
    # an int is whole as it stands: float() of one past 1e308 would overflow
    if not (number and (isinstance(value, Integral) or float(value).is_integer())):
        raise error(f"{name}={value if number else repr(value)} is not a whole number")
    return int(value)


def _count(name, value):
    """A whole number of at least 1: a count, or a CSQPE horizon."""
    value = _whole(name, value)
    if value < 1:
        raise ValueError(f"{name}={value} must be at least 1")
    return value


def _as_float(value):
    """float(value), or inf where value lies past the float range."""
    try:
        return float(value)
    except OverflowError:
        return np.inf


def _require_power_of_two(T):
    T = _whole("T", T, RpeRequiresPowerOfTwo)
    if T < 1 or (T & (T - 1)) != 0:
        raise RpeRequiresPowerOfTwo(f"T={T} is not a power of two")
    return T


def register_width(T):
    """n of the register of depth T = 2^n - 1, from 1 to _MAX_N; T must be whole."""
    M = _whole("T", T) + 1
    if not 2 <= M <= 2**_MAX_N or M & (M - 1):
        raise ValueError(f"QFT-QPE needs T = 2^n - 1 with 1 <= n <= {_MAX_N}")
    return M.bit_length() - 1


def _point(kind, T, N_t, N_s=1):
    """(kind, T, N_t, N_s) checked, with kind a ProtocolKind and the counts ints.

    A QMEGS or QCELS horizon is a real above 0 that is finite as a float,
    and the campaign's cost bound 2 T N_t N_s (both circuits of every
    pair at |t| <= T) is finite too; a CSQPE horizon is a count, an RPE
    one a power of two and a QFT-QPE one 2^n - 1, all ints.  QFT-QPE and
    RPE take N_t = 1.
    """
    kind = ProtocolKind(kind)
    N_t, N_s = _count("N_t", N_t), _count("N_s", N_s)
    if kind in (ProtocolKind.QMEGS, ProtocolKind.QCELS):
        if isinstance(T, bool) or not isinstance(T, Real) or not 0 < _as_float(T) < np.inf:
            raise ValueError(f"T={T!r} must be a finite number above 0")
        if 2.0 * float(T) * _as_float(N_t) * _as_float(N_s) == np.inf:
            raise ValueError(f"the cost bound 2 T N_t N_s of T={T!r}, N_t={N_t}, N_s={N_s} overflows")
    elif kind == ProtocolKind.CSQPE:
        T = _count("T", T)
    elif kind == ProtocolKind.RPE:
        T = _require_power_of_two(T)
    else:
        T = 2 ** register_width(T) - 1
    if kind in (ProtocolKind.QFT_QPE, ProtocolKind.RPE) and N_t != 1:
        raise ValueError(f"{kind.value} uses N_t = 1")
    return kind, T, N_t, N_s


def realize(kind, T, N_t, seed=0):
    """Draw (or lay out) the evolution times of one schedule.

    QMEGS times are i.i.d. from a normal of width T truncated to [-T, T],
    sampled by inverse CDF; CSQPE times are uniform integers in [1, T];
    QCELS times are the arithmetic grid k T / N_t; RPE uses the geometric
    ladder 1, 2, 4, ..., T and ignores N_t (its N_t is log2(T) + 1).
    """
    rpe = ProtocolKind(kind) == ProtocolKind.RPE
    kind, T, N_t, _ = _point(kind, T, 1 if rpe else N_t)
    if kind == ProtocolKind.QMEGS:
        from scipy.special import erfinv

        u = np.random.default_rng(seed).random(N_t)
        times = T * np.sqrt(2.0) * erfinv(_C * (2.0 * u - 1.0))
    elif kind == ProtocolKind.CSQPE:
        times = np.random.default_rng(seed).integers(1, T + 1, size=N_t).astype(float)
    elif kind == ProtocolKind.QCELS:
        times = np.arange(1, N_t + 1, dtype=float) * T / N_t
    elif rpe:
        times = 2.0 ** np.arange(T.bit_length())
    else:
        raise ValueError("QFT-QPE has no time schedule; it is a one-shot circuit family")
    return Schedule(kind, float(T), times.size, times)


def gamma(kind, T=None, N_t=None):
    """Linear cost constant: t_total = gamma * N_s * N_t * T.

    Counting both circuits of the Hadamard-test pair at |t| each.
    """
    kind = ProtocolKind(kind)
    if kind == ProtocolKind.QMEGS:
        return 2.0 * np.sqrt(2.0 / np.pi) / _C * (1.0 - np.exp(-0.5))
    if kind == ProtocolKind.CSQPE:
        T = _count("T", T)
        return (T + 1.0) / T
    if kind == ProtocolKind.QCELS:
        N_t = _count("N_t", N_t)
        return (N_t + 1.0) / N_t
    raise NoLinearCostForm(f"{kind.value} has no linear total-cost constant")


def chi(kind, T=None, N_t=None):
    """Normalized schedule second moment E[t^2]/T^2 (mean over times for RPE)."""
    kind = ProtocolKind(kind)
    if kind == ProtocolKind.QMEGS:
        return 1.0 - np.sqrt(2.0 / (np.pi * np.e)) / _C
    if kind == ProtocolKind.CSQPE:
        T = _count("T", T)
        return (T + 1.0) * (2.0 * T + 1.0) / (6.0 * T**2)
    if kind == ProtocolKind.QCELS:
        N_t = _count("N_t", N_t)
        return (N_t + 1.0) * (2.0 * N_t + 1.0) / (6.0 * N_t**2)
    if kind == ProtocolKind.RPE:
        T = _require_power_of_two(T)
        m = int(np.log2(T)) + 1
        return (4.0 * T**2 - 1.0) / (3.0 * m * T**2)
    raise NoLinearCostForm("QFT-QPE has no schedule second moment")


def t_total(kind, T, N_t, N_s):
    """Total evolution-time cost of a campaign with N_s shots per time."""
    kind, T, N_t, N_s = _point(kind, T, N_t, N_s)
    if kind == ProtocolKind.QFT_QPE:
        return float(N_s * T)
    if kind == ProtocolKind.RPE:
        return float(2 * N_s * (2 * T - 1))
    return float(gamma(kind, T, N_t) * N_s * N_t * T)
