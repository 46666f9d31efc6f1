"""Variance bounds: inverse entries, diagonal ratio, cost products."""

from fractions import Fraction

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
from qpe_bounds.errors import NoLinearCostForm, PhaseOnlyFim, RpeRequiresPowerOfTwo, SingularFim


def _toy(tt, tc, cc):
    return BlockFim(np.array([[tt, tc], [tc, cc]], dtype=float))


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


def test_a_phase_only_matrix_refuses_what_needs_the_c_rows():
    # built with the overlaps known, the matrix is the 3 x 3 theta-theta
    # block; a 2L x 2L reading of it would take L = 1 and index or invert
    # the wrong entries
    s = Spectrum([0.7, -0.4, 0.1], [0.5, 0.3, 0.2])
    full = total_fim(s, "csqpe", 15, 6, 1)
    theta = total_fim(s, "csqpe", 15, 6, 1, overlaps_known=True)
    assert theta.matrix.shape == (3, 3) and theta.L == full.L == 3
    for F, k in ((theta, 1.0), (2.0 * theta, 2.0), (theta * 3, 3.0), (theta + theta, 2.0)):
        assert F.overlaps_known
        for refused in (F.full, lambda: crlb_full(F, 2), lambda: diag_ratio(F, 2)):
            with pytest.raises(PhaseOnlyFim):
                refused()
        # what reads the theta-theta block alone still works
        assert F.index_of(2) == 2
        assert crlb_diag(F, 2) == pytest.approx(crlb_diag(full, 2) / k, rel=1e-13)
    for mixed in (lambda: theta + full, lambda: full + theta):
        with pytest.raises(PhaseOnlyFim):
            mixed()
    # a matrix given to the constructor is a full (theta, c) matrix
    toy = _toy(2.0, 1.0, 2.0)
    assert not toy.overlaps_known and toy.L == 1 and toy.full() is toy.matrix


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


def test_eigenvalue_floor_caps_the_entry_above_condition_1e12():
    # unit-diagonal scaling leaves [[1, r], [r, 1]]: eigenvalues 1 +- r on
    # the eigenvectors (1, +-1) / sqrt(2).  At r = 1 - 1e-14 the condition
    # is about 2e14, so the small eigenvalue is floored at 1e-12 of the
    # large one, and the entry understates the exact inverse entry
    a, c, r = 4.0, 9.0, 1.0 - 1e-14
    b = r * np.sqrt(a * c)
    got = crlb_full(_toy(a, b, c))
    hi = 1.0 + r
    assert hi / (1.0 - r) > 1e12
    assert got == pytest.approx((0.5 / hi + 0.5 / (hi * 1e-12)) / a, rel=1e-12)
    exact = Fraction(c) / (Fraction(a) * Fraction(c) - Fraction(b) ** 2)
    assert got <= exact


def test_singular_fim_edge_at_minus_1e8_of_the_largest_eigenvalue():
    # scaled [[1, r], [r, 1]] has eigenvalues 1 +- r; past r = 1 the small one
    # is negative.  Down to -1e-8 of the large one it is roundoff and the
    # floor lifts it to 1e-12 of the large one; below that it raises
    r = 1.0 + 1e-8
    hi = 1.0 + r
    got = crlb_full(_toy(4.0, r * 6.0, 9.0))
    assert got == pytest.approx((0.5 / hi + 0.5 / (1e-12 * hi)) / 4.0, rel=1e-9)
    with pytest.raises(SingularFim, match="indefinite") as err:
        crlb_full(_toy(4.0, (1.0 + 3e-8) * 6.0, 9.0))
    assert err.value.condition == pytest.approx(2.0 / 3e-8, rel=1e-6)


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


def test_a_target_with_no_information_has_no_floor():
    # mode 1 of the L = 3 uniform spectrum sits at phase 0.0, bin 0 of every
    # register: off the bin each kernel has a double zero and on it its
    # peak, so every d p(y) / d theta_1 vanishes and I_11 = 0 exactly
    s = make_spectrum("uniform", 3, 0.5)
    assert s.phase(1) == 0.0
    for T in (7, 255):
        F = total_fim(s, "qft", T, 1, 1)
        assert F.matrix[1, 1] == 0.0
        for refused in (
            lambda: g_i(s, "qft", T, 1, 1, label=1),
            lambda: cost_product_bound(s, "qft", T, 1, 1, label=1),
            lambda: crlb_diag(F, 1),
            lambda: diag_ratio(F, 1),
            lambda: crlb_full(F, 1),
        ):
            with pytest.raises(SingularFim, match="^diagonal Fisher entry is not positive$"):
                refused()


def test_the_checked_diagonal_read_refuses_an_entry_not_above_zero():
    assert _toy(4.0, 0.0, 9.0).information(0) == 4.0
    for entry in (0.0, -1.0, np.nan):
        F = _toy(entry, 0.0, 1.0)
        for read in (lambda: F.information(0), lambda: crlb_diag(F), lambda: diag_ratio(F),
                     lambda: crlb_full(F)):
            with pytest.raises(SingularFim, match="^diagonal Fisher entry is not positive$"):
                read()


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


def test_cost_product_of_rpe_is_the_cramer_rao_floor():
    # RPE has no linear cost form; its floor T t_total / I_ii needs none,
    # and on this spectrum it sits inside the rpe_fim_bounds envelope
    s = make_spectrum("uniform", 20, 0.4)
    for T in (16, 256, 4096):
        F = total_fim(s, "rpe", T, 1, 3)
        info = F.theta_theta[F.index_of(0), F.index_of(0)]
        cost = T * t_total("rpe", T, 1, 3)
        bound = cost_product_bound(s, "rpe", T, 1, 3)
        assert bound == cost / info
        assert g_i(s, "rpe", T, 1, 3) == info / (3 * T**2)
        lo, hi = rpe_fim_bounds(s, T, 3)
        assert cost / hi < bound < cost / lo
    with pytest.raises(NoLinearCostForm):
        gamma("rpe", 8, 1)
    for fn in (cost_product_bound, g_i):
        with pytest.raises(ValueError, match="N_t = 1"):
            fn(s, "rpe", 8, 4, 1)  # the ladder ignores N_t, the normalization would not


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
