"""Time schedules and the (gamma, chi) cost constants."""

import re

import numpy as np
import pytest
from scipy.special import erf

from qpe_bounds import (
    ProtocolKind,
    Schedule,
    Spectrum,
    chi,
    cost_product_bound,
    estimate_csqpe,
    estimate_qmegs,
    f_i,
    g_i,
    gamma,
    ht_expectations,
    ht_fim_single,
    realize,
    rpe_fim_bounds,
    sample_ht,
    sample_ht_exact,
    sample_qft,
    t_total,
    total_fim,
)
from qpe_bounds.bench import ProtocolSpec
from qpe_bounds.errors import NoLinearCostForm, RpeRequiresPowerOfTwo

_C = float(erf(1.0 / np.sqrt(2.0)))


def test_qmegs_times_cover_symmetric_range():
    s = realize("qmegs", 100, 20000, seed=1)
    assert s.times.size == 20000
    assert np.max(np.abs(s.times)) <= 100.0
    assert np.min(s.times) < 0 < np.max(s.times)


def test_qmegs_deterministic_per_seed():
    a = realize("qmegs", 50, 100, seed=3).times
    b = realize("qmegs", 50, 100, seed=3).times
    c = realize("qmegs", 50, 100, seed=4).times
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_qmegs_moments_match_constants():
    # 10^5 draws give standard errors well below the 1% tolerance used here
    s = realize("qmegs", 1.0, 10**5, seed=7)
    assert np.mean(np.abs(s.times)) == pytest.approx(gamma("qmegs") / 2, rel=0.01)
    assert np.mean(s.times**2) == pytest.approx(chi("qmegs"), rel=0.02)


def test_csqpe_times_are_integers_in_range():
    s = realize("csqpe", 7, 5000, seed=0)
    assert np.all(s.times == np.round(s.times))
    assert s.times.min() >= 1 and s.times.max() <= 7
    assert set(np.unique(s.times)) == set(range(1, 8))


def test_qcels_grid():
    s = realize("qcels", 10, 4)
    assert np.allclose(s.times, [2.5, 5.0, 7.5, 10.0])


def test_rpe_ladder():
    s = realize("rpe", 8, 99)
    assert np.allclose(s.times, [1, 2, 4, 8])
    assert s.N_t == 4
    with pytest.raises(RpeRequiresPowerOfTwo):
        realize("rpe", 12, 1)


def test_gamma_closed_forms():
    want = 2.0 * np.sqrt(2.0 / np.pi) / _C * (1.0 - np.exp(-0.5))
    assert gamma("qmegs") == pytest.approx(want, rel=1e-12)
    assert gamma("csqpe", T=4) == pytest.approx(5.0 / 4.0)
    assert gamma("qcels", N_t=10) == pytest.approx(11.0 / 10.0)
    with pytest.raises(NoLinearCostForm):
        gamma("rpe")
    with pytest.raises(NoLinearCostForm):
        gamma("qft")


def test_chi_closed_forms_match_brute_force():
    # integer-uniform and arithmetic-grid second moments are finite sums
    for T in (2, 5, 100):
        brute = np.mean(np.arange(1.0, T + 1) ** 2) / T**2
        assert chi("csqpe", T=T) == pytest.approx(brute, rel=1e-12)
    for N_t in (2, 7, 50):
        ts = np.arange(1.0, N_t + 1) / N_t
        assert chi("qcels", N_t=N_t) == pytest.approx(np.mean(ts**2), rel=1e-12)
    assert chi("csqpe", T=2) == pytest.approx(0.625)


def test_chi_rpe():
    T = 8
    m = 4
    brute = np.mean(np.array([1.0, 2.0, 4.0, 8.0]) ** 2) / T**2
    assert chi("rpe", T=T) == pytest.approx(brute, rel=1e-12)
    assert chi("rpe", T=T) == pytest.approx((4 * T**2 - 1) / (3 * m * T**2))


def test_gamma_brute_force_qmegs():
    # E|t|/T against the closed form, using the inverse-CDF sampler itself
    s = realize("qmegs", 1000.0, 200000, seed=11)
    se = np.std(np.abs(s.times) / 1000.0) / np.sqrt(s.times.size)
    assert abs(np.mean(np.abs(s.times)) / 1000.0 - gamma("qmegs") / 2) < 3 * se


def test_t_total_forms():
    assert t_total("qft", 255, 1, 3) == pytest.approx(765.0)
    assert t_total("rpe", 8, 1, 3) == pytest.approx(2 * 3 * (2 * 8 - 1))
    assert t_total("qcels", 10, 4, 2) == pytest.approx(gamma("qcels", N_t=4) * 2 * 4 * 10)
    assert t_total("qmegs", 100, 50, 1) == pytest.approx(gamma("qmegs") * 50 * 100)


def test_kind_accepts_enum_and_string():
    assert gamma(ProtocolKind.QMEGS) == gamma("qmegs")
    with pytest.raises(ValueError):
        realize("nope", 10, 10)


def test_fractional_horizons_are_rejected_not_truncated():
    # RPE and CSQPE live on integer times, so a fractional T is an error,
    # never the whole horizon below it; integral floats stay valid
    with pytest.raises(RpeRequiresPowerOfTwo):
        realize("rpe", 16.9, 1)
    with pytest.raises(RpeRequiresPowerOfTwo):
        chi("rpe", 16.9)
    with pytest.raises(RpeRequiresPowerOfTwo):
        t_total("rpe", 16.9, 1, 1)
    for fn in (realize, gamma, chi):
        with pytest.raises(ValueError):
            fn("csqpe", 10.5, 5)
    with pytest.raises(ValueError):
        t_total("csqpe", 10.5, 5, 1)
    assert np.array_equal(realize("rpe", 16.0, 1).times, realize("rpe", 16, 1).times)
    assert np.array_equal(realize("csqpe", 10.0, 5).times, realize("csqpe", 10, 5).times)
    assert (chi("rpe", 16.0), t_total("rpe", 16.0, 1, 1)) == (
        chi("rpe", 16), t_total("rpe", 16, 1, 1)
    )
    assert (gamma("csqpe", 10.0), chi("csqpe", 10.0), t_total("csqpe", 10.0, 5, 1)) == (
        gamma("csqpe", 10), chi("csqpe", 10), t_total("csqpe", 10, 5, 1)
    )


@pytest.mark.parametrize("kind", ["qmegs", "csqpe", "qcels"])
def test_fractional_time_counts_are_rejected_not_truncated(kind):
    # a schedule drawing int(N_t) times while t_total charges N_t would
    # account for circuits that never run
    calls = [lambda: realize(kind, 10, 2.5), lambda: t_total(kind, 10, 2.5, 1)]
    if kind == "qcels":
        calls += [lambda: gamma(kind, 10, 2.5), lambda: chi(kind, 10, 2.5)]
    for call in calls:
        with pytest.raises(ValueError, match="N_t=2.5 is not a whole number"):
            call()
    assert realize(kind, 10, 2.0).N_t == realize(kind, 10, 2).times.size == 2
    assert t_total(kind, 10, 2.0, 1) == t_total(kind, 10, 2, 1)


def test_booleans_and_strings_are_not_whole_numbers():
    # True == 1 and "4" parses as 4, but neither is a count: both raise
    # instead of being coerced, in the library as in configs
    s = Spectrum([0.3], [1.0])
    with pytest.raises(ValueError, match="N_t=True is not a whole number"):
        total_fim(s, "qcels", 10, True, 1)
    with pytest.raises(ValueError, match="N_t='4' is not a whole number"):
        realize("qcels", 10, "4")
    with pytest.raises(RpeRequiresPowerOfTwo):
        realize("rpe", True, 1)
    assert realize("qcels", 10, np.int64(4)).N_t == 4


_S = Spectrum([0.3, -0.4], [0.6, 0.4])
_DATA = sample_ht_exact(_S, realize("csqpe", 10, 6))
# a count below 1, a horizon at or below 0, or a fractional or boolean
# sparsity is an error, never an empty schedule, a negative cost or a
# silently truncated fit
_NOT_POSITIVE = {
    "t_total-N_s=0": lambda: t_total("qmegs", 100, 5, 0),
    "t_total-N_t=-5": lambda: t_total("qmegs", 100, -5, 1),
    "t_total-qft-T=-7": lambda: t_total("qft", -7, 1, 1),
    "t_total-csqpe-T=-4": lambda: t_total("csqpe", -4, 2, 1),
    "t_total-qcels-T=0": lambda: t_total("qcels", 0, 2, 1),
    "gamma-csqpe-T=0": lambda: gamma("csqpe", 0),
    "gamma-qcels-N_t=0": lambda: gamma("qcels", N_t=0),
    "chi-csqpe-T=0": lambda: chi("csqpe", 0),
    "chi-qcels-N_t=0": lambda: chi("qcels", N_t=0),
    "realize-qmegs-N_t=0": lambda: realize("qmegs", 10, 0),
    "realize-csqpe-N_t=0": lambda: realize("csqpe", 10, 0),
    "realize-qcels-N_t=-1": lambda: realize("qcels", 10, -1),
    "total_fim-N_t=0": lambda: total_fim(_S, "csqpe", 10, 0, 1),
    "total_fim-N_s=0": lambda: total_fim(_S, "qcels", 10, 2, 0),
    "total_fim-qmegs-T=0": lambda: total_fim(_S, "qmegs", 0, 2, 1),
    "total_fim-qmegs-T=-12": lambda: total_fim(_S, "qmegs", -12, 2, 1),
    "total_fim-csqpe-T=0": lambda: total_fim(_S, "csqpe", 0, 2, 1),
    "sample_ht-N_s=0": lambda: sample_ht(_S, realize("qcels", 10, 2), 0),
    "sample_qft-N_s=0": lambda: sample_qft(_S, 3, 0),
    "csqpe-sparsity=2.5": lambda: estimate_csqpe(_DATA, 2.5),
    "csqpe-sparsity=True": lambda: estimate_csqpe(_DATA, True),
    "csqpe-sparsity=0": lambda: estimate_csqpe(_DATA, 0),
    "config-N_t=0": lambda: ProtocolSpec("qcels", 16, N_t=0),
    "config-sparsity=-1": lambda: ProtocolSpec("csqpe", 16, sparsity=-1),
}


@pytest.mark.parametrize("call", list(_NOT_POSITIVE.values()), ids=list(_NOT_POSITIVE))
def test_counts_and_horizons_below_one_are_rejected(call):
    with pytest.raises(ValueError):
        call()


# points that one entry point refused and another took, or that no entry
# point checked: a QFT-QPE depth off 2^n - 1, N_t != 1 for QFT-QPE or RPE,
# a horizon that is not finite (as a float, or in the cost bound
# 2 T N_t N_s), a bool or a string, a negative shot count.
# Each raises the rule's own message, before any work starts.
_HORIZON = "must be a finite number above 0"
_OUTSIDE_THE_RULES = {
    "t_total-qft-T=6": (lambda: t_total("qft", 6, 1, 1), "QFT-QPE needs T = 2"),
    "t_total-qft-T=7.5": (lambda: t_total("qft", 7.5, 1, 1), "T=7.5 is not a whole number"),
    "t_total-qft-T=2^40-1": (lambda: t_total("qft", 2**40 - 1, 1, 1), "QFT-QPE needs T = 2"),
    "t_total-qft-N_t=2": (lambda: t_total("qft", 7, 2, 1), "qft uses N_t = 1"),
    "t_total-rpe-N_t=4": (lambda: t_total("rpe", 8, 4, 2), "rpe uses N_t = 1"),
    "t_total-qmegs-T=nan": (lambda: t_total("qmegs", np.nan, 1, 1), f"T=nan {_HORIZON}"),
    "t_total-qmegs-T=True": (lambda: t_total("qmegs", True, 1, 1), f"T=True {_HORIZON}"),
    "t_total-qcels-T='8'": (lambda: t_total("qcels", "8", 2, 1), f"T='8' {_HORIZON}"),
    "t_total-qmegs-T=1e308-N_t=2": (
        lambda: t_total("qmegs", 1e308, 2, 1),
        "the cost bound 2 T N_t N_s of T=1e+308, N_t=2, N_s=1 overflows",
    ),
    "t_total-qmegs-T=10**400": (lambda: t_total("qmegs", 10**400, 1, 1), f"T={10**400} {_HORIZON}"),
    "config-qmegs-T=10**400": (lambda: ProtocolSpec("qmegs", 10**400), f"T={10**400} {_HORIZON}"),
    "g_i-qcels-T=inf": (lambda: g_i(_S, "qcels", np.inf, 3, 1), f"T=inf {_HORIZON}"),
    "g_i-qmegs-T=nan": (lambda: g_i(_S, "qmegs", np.nan, 3, 1), f"T=nan {_HORIZON}"),
    "bound-qcels-T=nan": (
        lambda: cost_product_bound(_S, "qcels", np.nan, 3, 1), f"T=nan {_HORIZON}"
    ),
    "total_fim-qcels-T=True": (lambda: total_fim(_S, "qcels", True, 2, 1), f"T=True {_HORIZON}"),
    "estimate_qmegs-T=0": (lambda: estimate_qmegs(_DATA, 0), f"T=0 {_HORIZON}"),
    "estimate_qmegs-T=nan": (lambda: estimate_qmegs(_DATA, np.nan), f"T=nan {_HORIZON}"),
    "estimate_qmegs-T=-5": (lambda: estimate_qmegs(_DATA, -5), f"T=-5 {_HORIZON}"),
    "rpe_fim_bounds-N_s=-3": (lambda: rpe_fim_bounds(_S, 8, -3), "N_s=-3 must be at least 1"),
    "rpe_fim_bounds-N_s=nan": (
        lambda: rpe_fim_bounds(_S, 8, np.nan), "N_s=nan is not a whole number"
    ),
    "ht_fim_single-t=nan": (lambda: ht_fim_single(_S, np.nan), "t=nan is not finite"),
    "f_i-t=inf": (lambda: f_i(_S, 0, np.inf), "t=inf is not finite"),
}
# a time that is not finite is refused by the Hadamard-test law itself, so
# both samplers and ht_expectations raise its one message, never NaN counters
for _t in (np.nan, np.inf, -np.inf):
    _times = np.array([1.0, _t, 2.0])
    _sched = Schedule(ProtocolKind.QMEGS, 10.0, 3, _times)
    _OUTSIDE_THE_RULES.update({
        f"sample_ht-t={_t}": (lambda s=_sched: sample_ht(_S, s, 2), f"t={_t} is not finite"),
        f"sample_ht_exact-t={_t}": (
            lambda s=_sched: sample_ht_exact(_S, s, 2), f"t={_t} is not finite"
        ),
        f"ht_expectations-t={_t}": (
            lambda t=_times: ht_expectations(_S, t), f"t={_t} is not finite"
        ),
    })


@pytest.mark.parametrize(
    "call, message", list(_OUTSIDE_THE_RULES.values()), ids=list(_OUTSIDE_THE_RULES)
)
def test_points_outside_the_rules_are_refused_by_every_entry_point(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
