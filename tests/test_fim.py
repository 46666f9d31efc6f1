"""Fisher blocks: oracles, singular limits, schedule totals."""

import numpy as np
import pytest

from helpers import fd_fisher, ht_outcome_probs, qft_outcome_probs, random_spectrum
from qpe_bounds import (
    BlockFim,
    Spectrum,
    chi,
    cost_product_bound,
    f_i,
    f_i_max,
    g_i,
    ht_expectations,
    ht_fim_single,
    qft_fim,
    realize,
    rpe_fim_bounds,
    total_fim,
)
from qpe_bounds.errors import RpeRequiresPowerOfTwo, ZeroSecondMoment
from qpe_bounds.fim import _ht_blocks_weighted


def test_ht_expectations_single_mode():
    s = Spectrum([0.5], [1.0])
    C, S = ht_expectations(s, 3.0)
    assert C == pytest.approx(np.cos(1.5))
    assert S == pytest.approx(np.sin(1.5))


def test_ht_single_mode_theta_information_is_2t2():
    # 4 pi and 8 pi are aligned times (C = 1), where the limit applies
    s = Spectrum([0.5], [1.0])
    for t in (0.3, 3.0, 17.0, 4.0 * np.pi, 8.0 * np.pi):
        F = ht_fim_single(s, t)
        assert F.theta_theta[0, 0] == pytest.approx(2.0 * t**2, rel=1e-9)


def test_rpe_information_at_aligned_times_is_the_gain_sum():
    # every ladder time 1, 2, 4, 8, 16 aligns this spectrum from t = 4 on
    s = Spectrum([np.pi / 2, -np.pi / 4], [0.6, 0.4])
    T = 16
    pos = s.index_of(0)
    got = total_fim(s, "rpe", T, 1, 1).theta_theta[pos, pos]
    want = sum(s.overlap(0) ** 2 * t**2 * f_i(s, 0, t) for t in 2.0 ** np.arange(5))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(287.6370186335404, rel=1e-12)
    lo, hi = rpe_fim_bounds(s, T, 1, 0)
    assert lo <= got <= hi


def test_qcels_information_is_continuous_at_aligned_times():
    # all eight times k T / N_t = 8 k align both phases (C = 1)
    s = Spectrum([np.pi / 4, -np.pi / 2], [0.7, 0.3])
    pos = s.index_of(0)
    times = realize("qcels", 64, 8).times
    aligned = total_fim(s, "qcels", 64, 8, 1).theta_theta[pos, pos]
    nearby = _ht_blocks_weighted(s, times * (1.0 + 1e-5), np.ones(8))
    assert aligned == pytest.approx(nearby.theta_theta[pos, pos], rel=1e-4)
    assert cost_product_bound(s, "qcels", 64, 8, 1) == pytest.approx(3.7753, abs=1e-4)


def test_ht_fim_matches_fd_oracle():
    rng = np.random.default_rng(21)
    for _ in range(12):
        s = random_spectrum(rng)
        t = float(rng.uniform(0.3, 5.0))
        got = ht_fim_single(s, t).full()
        want = fd_fisher(lambda th, c: ht_outcome_probs(th, c, t), s.phases, s.overlaps)
        scale = np.max(np.abs(want)) + 1e-300
        assert np.max(np.abs(got - want)) / scale < 1e-6


def test_ht_fim_at_zero_time_theta_block_vanishes():
    rng = np.random.default_rng(22)
    s = random_spectrum(rng, L=3)
    F = ht_fim_single(s, 0.0)
    assert np.allclose(F.theta_theta, 0.0, atol=1e-12)


def test_qft_fim_matches_fd_oracle():
    rng = np.random.default_rng(23)
    for _ in range(8):
        s = random_spectrum(rng)
        n = int(rng.integers(1, 7))
        got = qft_fim(s, n).full()
        want = fd_fisher(lambda th, c: qft_outcome_probs(th, c, n), s.phases, s.overlaps)
        scale = np.max(np.abs(want)) + 1e-300
        assert np.max(np.abs(got - want)) / scale < 1e-5


def test_qft_eigenstate_identity():
    s = Spectrum([0.37], [1.0])
    for n in range(1, 13):
        got = qft_fim(s, n).theta_theta[0, 0]
        assert got == pytest.approx((4.0**n - 1.0) / 3.0, rel=1e-9)


def test_qft_eigenstate_cross_block_vanishes():
    # sum_y D^2 = M^2 makes d/dc of the log-likelihood integrate to zero
    s = Spectrum([0.37], [1.0])
    F = qft_fim(s, 2)
    assert F.theta_c[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert F.cc[0, 0] == pytest.approx(1.0, rel=1e-9)


def test_f_i_single_mode_is_two():
    s = Spectrum([0.5], [1.0])
    for t in (0.0, 1.3, 11.0):
        assert f_i(s, 0, t) == pytest.approx(2.0, rel=1e-12)


def test_f_i_at_least_one_everywhere():
    rng = np.random.default_rng(24)
    for _ in range(40):
        s = random_spectrum(rng, L=3)
        t = float(rng.uniform(0.0, 20.0))
        assert f_i(s, 0, t) >= 1.0 - 1e-9


def test_f_i_matches_fim_diagonal():
    rng = np.random.default_rng(26)
    for _ in range(10):
        s = random_spectrum(rng, L=4)
        t = float(rng.uniform(0.5, 10.0))
        F = ht_fim_single(s, t)
        for pos in range(s.L):
            want = F.theta_theta[pos, pos] / (s.overlaps[pos] ** 2 * t**2)
            assert f_i(s, s.labels[pos], t) == pytest.approx(want, rel=1e-9)


def test_f_i_can_exceed_aligned_value_at_generic_times():
    # the aligned-time value is a limit at singular points, not a sup;
    # capping f_i at f_i_max would falsify the Fisher diagonal
    c = np.array([0.27241843, 0.52721892, 0.20036266])
    s = Spectrum([-0.88147967, 0.80420184, 2.10798931], c / c.sum())
    assert f_i(s, 0, 14.611250464900042) > f_i_max(s, 0) + 0.05


def test_f_i_at_singular_point_equals_max():
    rng = np.random.default_rng(25)
    s = random_spectrum(rng, L=3)
    # t = 0 is the aligned point C = 1; near it (c_0 t)^2 underflows
    for t in (0.0, 1e-9, -1e-200):
        assert f_i(s, 0, t) == pytest.approx(f_i_max(s, 0), rel=1e-12)


def test_f_i_max_zero_second_moment():
    with pytest.raises(ZeroSecondMoment):
        f_i_max(Spectrum([0.0], [1.0]), 0)
    with pytest.raises(ZeroSecondMoment):
        f_i(Spectrum([0.0], [1.0]), 0, 2.0)


def test_f_i_needs_a_nonzero_overlap():
    with pytest.raises(ValueError):
        f_i(Spectrum([0.5, -0.5], [1.0, 0.0]), 1, 2.0)


def test_blockfim_add_and_scale():
    s = Spectrum([0.4, -0.4], [0.5, 0.5])
    F1 = ht_fim_single(s, 1.0)
    F2 = ht_fim_single(s, 2.0)
    both = F1 + F2
    assert np.allclose(both.theta_theta, F1.theta_theta + F2.theta_theta)
    assert np.allclose((2.0 * F1).cc, 2.0 * F1.cc)
    other = ht_fim_single(Spectrum([0.1, 0.2, 0.3], [0.2, 0.3, 0.5]), 1.0)
    with pytest.raises(ValueError):
        F1 + other


def test_full_matrix_layout():
    s = Spectrum([0.4, -0.4], [0.5, 0.5])
    F = ht_fim_single(s, 1.7)
    full = F.full()
    L = s.L
    assert full.shape == (2 * L, 2 * L)
    assert np.allclose(full[:L, :L], F.theta_theta)
    assert np.allclose(full[:L, L:], F.theta_c)
    assert np.allclose(full[L:, L:], F.cc)
    assert np.allclose(full, full.T)


def test_total_fim_qcels_exact_sum():
    # L=1, theta=0.5, T=4, N_t=4: times 1,2,3,4 give 2(1+4+9+16) = 60
    s = Spectrum([0.5], [1.0])
    F = total_fim(s, "qcels", 4, 4, 1)
    assert F.theta_theta[0, 0] == pytest.approx(60.0, rel=1e-12)
    assert total_fim(s, "qcels", 4, 4, 5).theta_theta[0, 0] == pytest.approx(300.0)


def test_total_fim_csqpe_is_mean_over_integers():
    s = Spectrum([0.7, -0.3], [0.6, 0.4])
    T = 9
    per_t = [ht_fim_single(s, float(t)) for t in range(1, T + 1)]
    want = per_t[0] * 0.0
    for F in per_t:
        want = want + F
    want = (3 * 4 / float(T)) * want
    got = total_fim(s, "csqpe", T, 4, 3)
    assert np.allclose(got.full(), want.full(), rtol=1e-12)
    # the 1..T grid needs a whole T; it is never cut back to int(T)
    assert np.array_equal(total_fim(s, "csqpe", 9.0, 4, 3).full(), got.full())
    with pytest.raises(ValueError):
        total_fim(s, "csqpe", 9.5, 4, 3)
    with pytest.raises(RpeRequiresPowerOfTwo):
        total_fim(s, "rpe", 8.5, 1, 3)


def test_total_fim_rpe_sums_powers():
    s = Spectrum([0.5], [1.0])
    got = total_fim(s, "rpe", 8, 1, 3)
    want = 3 * 2 * (1 + 4 + 16 + 64)
    assert got.theta_theta[0, 0] == pytest.approx(want, rel=1e-12)


def test_total_fim_qmegs_single_mode_quadrature():
    s = Spectrum([0.5], [1.0])
    T = 100
    got = total_fim(s, "qmegs", T, 1, 1).theta_theta[0, 0]
    assert got == pytest.approx(2.0 * chi("qmegs") * T**2, rel=1e-6)


def test_total_fim_qft_scales_with_shots():
    s = Spectrum([0.37], [1.0])
    one = qft_fim(s, 3)
    tot = total_fim(s, "qft", 7, 1, 50)
    assert np.allclose(tot.full(), 50.0 * one.full(), rtol=1e-12)
    with pytest.raises(ValueError):
        total_fim(s, "qft", 6, 1, 1)  # T must be 2^n - 1
    with pytest.raises(ValueError):
        total_fim(s, "qft", 7.5, 1, 1)  # not cut back to T = 7
    assert np.array_equal(total_fim(s, "qft", 7.0, 1, 50).full(), tot.full())
    with pytest.raises(ValueError):
        total_fim(s, "qft", 7, 2, 1)  # one-shot circuit family


def test_g_i_definition_consistency():
    s = Spectrum([0.5], [1.0])
    T, N_t, N_s = 50, 10, 2
    F = total_fim(s, "qcels", T, N_t, N_s)
    want = F.theta_theta[0, 0] / (N_s * N_t * T**2)
    assert g_i(s, "qcels", T, N_t, N_s) == pytest.approx(want, rel=1e-12)
