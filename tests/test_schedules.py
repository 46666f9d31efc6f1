"""Time schedules and the (gamma, chi) cost constants."""

import numpy as np
import pytest
from scipy.special import erf

from qpe_bounds import ProtocolKind, chi, gamma, realize, t_total
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
