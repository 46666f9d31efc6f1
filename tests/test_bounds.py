"""Variance bounds: inverse entries, diagonal ratio, cost products."""

import numpy as np
import pytest

from helpers import random_spectrum
from qpe_bounds import (
    BlockFim,
    Spectrum,
    cost_product_bound,
    crlb_diag,
    crlb_full,
    diag_ratio,
    gamma,
    g_i,
    make_spectrum,
    qft_fim,
    rpe_fim_bounds,
    total_fim,
    t_total,
)
from qpe_bounds.errors import NoLinearCostForm, RpeRequiresPowerOfTwo, SingularFim


def _toy(tt, tc, cc):
    return BlockFim(
        np.atleast_2d(np.array(tt, dtype=float)),
        np.atleast_2d(np.array(tc, dtype=float)),
        np.atleast_2d(np.array(cc, dtype=float)),
        np.array([0]),
    )


def test_crlb_on_decoupled_matrix():
    F = _toy(4.0, 0.0, 9.0)
    assert crlb_diag(F) == pytest.approx(0.25)
    assert crlb_full(F) == pytest.approx(0.25)
    assert diag_ratio(F) == pytest.approx(1.0)


def test_crlb_on_correlated_two_by_two():
    # [[2, 1], [1, 2]] has inverse [[2/3, -1/3], [-1/3, 2/3]]
    F = _toy(2.0, 1.0, 2.0)
    assert crlb_diag(F) == pytest.approx(0.5)
    assert crlb_full(F) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert diag_ratio(F) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_full_bound_never_below_diagonal_surrogate():
    rng = np.random.default_rng(31)
    for _ in range(10):
        s = random_spectrum(rng, L=4)
        F = total_fim(s, "qcels", 20, 8, 2)
        for lab in s.labels:
            assert crlb_full(F, lab) >= crlb_diag(F, lab) * (1.0 - 1e-9)


def test_crlb_full_scales_inversely_with_shots():
    s = Spectrum([0.7, -0.4, 0.1], [0.5, 0.3, 0.2])
    F = total_fim(s, "csqpe", 15, 6, 1)
    one = crlb_full(F)
    ten = crlb_full(10.0 * F)
    assert ten == pytest.approx(one / 10.0, rel=1e-9)


def test_breakdown_regime_returns_capped_entry():
    # T far below 1/gap: the matrix is valid but numerically singular;
    # the entry comes back huge and positive instead of raising
    s = make_spectrum("head_dense", 20, 0.4)
    F = total_fim(s, "csqpe", 100, 100, 1)
    val = crlb_full(F)
    assert np.isfinite(val) and val > 0.0
    assert diag_ratio(F) > 1.2
    # the surrogate stays tiny, which is exactly the failure it flags
    assert crlb_diag(F) < 1e-3 * val


def test_singular_fim_on_bad_matrices():
    with pytest.raises(SingularFim):
        crlb_full(_toy(0.0, 0.0, 1.0))  # nonpositive diagonal
    with pytest.raises(SingularFim):
        crlb_full(_toy(1.0, 2.0, 1.0))  # eigenvalues 3 and -1
    with pytest.raises(SingularFim):
        crlb_full(_toy(np.nan, 0.0, 1.0))
    with pytest.raises(SingularFim):
        crlb_diag(_toy(-1.0, 0.0, 1.0))


def test_phase_on_the_readout_grid_is_dropped_from_the_bound():
    # the odd-L uniform family has a phase at 0, a point of every readout
    # grid: each outcome probability is stationary there, so that phase's
    # row is exactly zero and the bound is the reduced matrix's entry
    s = make_spectrum("uniform", 3, 0.4)
    idle = int(np.nonzero(s.phases == 0.0)[0][0])
    F = qft_fim(s, 4)
    full = F.full()
    assert not np.any(full[idle]) and not np.any(full[:, idle])
    keep = [k for k in range(full.shape[0]) if k != idle]
    pos = s.index_of(0)
    want = np.linalg.inv(full[np.ix_(keep, keep)])[keep.index(pos), keep.index(pos)]
    assert crlb_full(F, 0) == pytest.approx(want, rel=1e-9)
    assert diag_ratio(F, 0) >= 1.0
    # the target itself on the grid has no bound at all
    with pytest.raises(SingularFim):
        crlb_full(qft_fim(Spectrum([0.0, 0.5], [0.7, 0.3]), 4), 0)


def test_cost_product_is_gamma_over_g():
    s = make_spectrum("uniform", 20, 0.4)
    for kind, T, N_t in [("qcels", 100, 10), ("qmegs", 100, 10), ("csqpe", 100, 10)]:
        want = gamma(kind, T, N_t) / g_i(s, kind, T, N_t, 3)
        assert cost_product_bound(s, kind, T, N_t, 3) == pytest.approx(want, rel=1e-12)
    want = 1.0 / g_i(s, "qft", 127, 1, 3)
    assert cost_product_bound(s, "qft", 127, 1, 3) == pytest.approx(want, rel=1e-12)


def test_cost_product_equals_T_ttotal_over_diag_variance():
    # T * t_total * (1/I_ii) reproduces gamma / g_i exactly
    s = make_spectrum("uniform", 20, 0.4)
    for kind, T, N_t, N_s in [("qcels", 50, 5, 2), ("csqpe", 50, 5, 2), ("qft", 63, 1, 4)]:
        F = total_fim(s, kind, T, N_t, N_s)
        direct = T * t_total(kind, T, N_t, N_s) * crlb_diag(F)
        assert cost_product_bound(s, kind, T, N_t, N_s) == pytest.approx(
            direct, rel=1e-10
        )


def test_cost_product_shot_invariance():
    # gamma/g_i is per unit cost, so N_s cancels
    s = make_spectrum("uniform", 10, 0.3)
    a = cost_product_bound(s, "qcels", 40, 8, 1)
    b = cost_product_bound(s, "qcels", 40, 8, 7)
    assert a == pytest.approx(b, rel=1e-12)


def test_cost_product_rejects_rpe():
    s = make_spectrum("uniform", 10, 0.3)
    with pytest.raises(NoLinearCostForm):
        cost_product_bound(s, "rpe", 8, 4, 1)
    with pytest.raises(NoLinearCostForm):
        g_i(s, "rpe", 8, 4, 1)


def test_rpe_bounds_single_mode_are_exact():
    s = Spectrum([0.5], [1.0])
    lo, hi = rpe_fim_bounds(s, 8, 3)
    assert lo == pytest.approx(255.0)
    assert hi == pytest.approx(510.0)
    total = total_fim(s, "rpe", 8, 1, 3).theta_theta[0, 0]
    assert total == pytest.approx(hi, rel=1e-12)


def test_rpe_bounds_bracket_true_entry():
    # phases sort on construction, so map the label to its row
    s = Spectrum([0.9, -0.6], [0.7, 0.3])
    F = total_fim(s, "rpe", 16, 1, 5)
    for lab in (0, 1):
        lo, hi = rpe_fim_bounds(s, 16, 5, label=lab)
        pos = F.index_of(lab)
        entry = F.theta_theta[pos, pos]
        assert lo <= entry * (1.0 + 1e-12)
        assert lo < hi


def test_rpe_bounds_zero_overlap_mode():
    s = Spectrum([0.5, -0.5], [1.0, 0.0])
    assert rpe_fim_bounds(s, 8, 3, label=1) == (0.0, 0.0)


def test_rpe_bounds_require_power_of_two():
    s = Spectrum([0.5], [1.0])
    with pytest.raises(RpeRequiresPowerOfTwo):
        rpe_fim_bounds(s, 12, 3)
