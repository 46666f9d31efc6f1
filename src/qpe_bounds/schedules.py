"""Measurement-time schedules and their cost/second-moment constants.

Each Hadamard-test protocol is characterized by how it draws evolution
times t_k up to a cutoff T.  Two scalars summarize a schedule family:
gamma, the linear total-cost constant (t_total = gamma * N_s * N_t * T),
and chi, the normalized second moment E[t^2]/T^2.
"""

from dataclasses import dataclass
from enum import Enum
from numbers import Integral, Real

import numpy as np
from scipy.special import erf, erfinv

from .errors import NoLinearCostForm, RpeRequiresPowerOfTwo


class ProtocolKind(Enum):
    QFT_QPE = "qft"
    QMEGS = "qmegs"
    CSQPE = "csqpe"
    QCELS = "qcels"
    RPE = "rpe"


# normalization of the standard normal truncated to [-1, 1]
_C = float(erf(1.0 / np.sqrt(2.0)))


@dataclass
class Schedule:
    kind: ProtocolKind
    T: float
    N_t: int
    times: np.ndarray
    seed: int | None = None


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


def _require_power_of_two(T):
    T = _whole("T", T, RpeRequiresPowerOfTwo)
    if T < 1 or (T & (T - 1)) != 0:
        raise RpeRequiresPowerOfTwo(f"T={T} is not a power of two")
    return T


def realize(kind, T, N_t, seed=0):
    """Draw (or lay out) the evolution times of one schedule.

    QMEGS times are i.i.d. from a normal of width T truncated to [-T, T],
    sampled by inverse CDF; CSQPE times are uniform integers in [1, T], T whole;
    QCELS times are the arithmetic grid k T / N_t; RPE uses the geometric
    ladder 1, 2, 4, ..., T (N_t is then log2(T) + 1 regardless of input).
    """
    kind = ProtocolKind(kind)
    if T <= 0:
        raise ValueError("T must be positive")
    if kind != ProtocolKind.RPE:
        N_t = _count("N_t", N_t)
    if kind == ProtocolKind.QMEGS:
        rng = np.random.default_rng(seed)
        u = rng.random(N_t)
        times = T * np.sqrt(2.0) * erfinv(_C * (2.0 * u - 1.0))
        return Schedule(kind, float(T), N_t, times, seed)
    if kind == ProtocolKind.CSQPE:
        rng = np.random.default_rng(seed)
        times = rng.integers(1, _whole("T", T) + 1, size=N_t).astype(float)
        return Schedule(kind, float(T), N_t, times, seed)
    if kind == ProtocolKind.QCELS:
        k = np.arange(1, N_t + 1, dtype=float)
        return Schedule(kind, float(T), N_t, k * T / N_t, None)
    if kind == ProtocolKind.RPE:
        T = _require_power_of_two(T)
        m = int(np.log2(T)) + 1
        times = 2.0 ** np.arange(m)
        return Schedule(kind, float(T), m, times, None)
    raise ValueError("QFT-QPE has no time schedule; it is a one-shot circuit family")


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
    kind = ProtocolKind(kind)
    N_t, N_s = _count("N_t", N_t), _count("N_s", N_s)
    if T <= 0:
        raise ValueError("T must be positive")
    if kind == ProtocolKind.QFT_QPE:
        return float(N_s * T)
    if kind == ProtocolKind.RPE:
        T = _require_power_of_two(T)
        return float(2 * N_s * (2 * T - 1))
    return float(gamma(kind, T, N_t) * N_s * N_t * T)
