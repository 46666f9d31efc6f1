"""Fisher matrices: oracles, singular limits, schedule totals."""

import logging
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from helpers import fd_fisher, ht_outcome_probs, qft_outcome_probs, random_spectrum
from qpe_bounds import (
    BlockFim,
    ProtocolKind,
    Schedule,
    Spectrum,
    chi,
    cost_product_bound,
    f_i,
    f_i_max,
    g_i,
    ht_expectations,
    ht_fim_single,
    make_spectrum,
    qft_fim,
    realize,
    rpe_fim_bounds,
    sample_ht_exact,
    total_fim,
)
from qpe_bounds import fim as fim_module
from qpe_bounds.errors import RpeRequiresPowerOfTwo, ZeroSecondMoment
from qpe_bounds.fim import _ht_blocks_weighted, _qmegs_expected_blocks


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
    F = qft_fim(s, 2).full()
    assert F[0, 1] == pytest.approx(0.0, abs=1e-9)
    assert F[1, 1] == pytest.approx(1.0, rel=1e-9)


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


def test_zero_second_moment_raises_at_every_aligned_time():
    # with sum_l c_l theta_l^2 = 0 every time is aligned (C = 1) and the
    # limit column is undefined; t = 0, whose column would be 0, is no exception
    s = Spectrum([0.0], [1.0])
    for t in (0.0, 2.0):
        with pytest.raises(ZeroSecondMoment):
            ht_fim_single(s, t)
    with pytest.raises(ZeroSecondMoment):
        total_fim(s, "csqpe", 10, 1, 1)


def test_f_i_needs_a_nonzero_overlap():
    with pytest.raises(ValueError):
        f_i(Spectrum([0.5, -0.5], [1.0, 0.0]), 1, 2.0)


def test_blockfim_add_and_scale():
    s = Spectrum([0.4, -0.4], [0.5, 0.5])
    F1 = ht_fim_single(s, 1.0)
    F2 = ht_fim_single(s, 2.0)
    both = F1 + F2
    assert np.array_equal(both.full(), F1.full() + F2.full())
    assert np.array_equal(both.theta_theta, both.full()[:2, :2])
    assert np.array_equal((2.0 * F1).full()[2:, 2:], 2.0 * F1.full()[2:, 2:])
    assert np.array_equal((F1 * 2.0).full(), (2.0 * F1).full())
    other = ht_fim_single(Spectrum([0.1, 0.2, 0.3], [0.2, 0.3, 0.5]), 1.0)
    with pytest.raises(ValueError):
        F1 + other


def test_full_matrix_layout():
    s = Spectrum([0.4, -0.4], [0.5, 0.5])
    # dyadic phases align every cosine at t = 2 pi / 0.25: the aligned-time
    # limit is added to the theta-theta block there
    dyadic = Spectrum([0.25, -0.5, 0.75], [0.5, 0.3, 0.2])
    t_aligned = 2.0 * np.pi / 0.25
    assert abs(ht_expectations(dyadic, t_aligned)[0]) == pytest.approx(1.0)
    for spectrum, F in (
        (s, ht_fim_single(s, 1.7)),
        (s, qft_fim(s, 5)),
        (dyadic, ht_fim_single(dyadic, t_aligned)),
        (s, total_fim(s, "qmegs", 30, 4, 2)),
    ):
        full = F.full()
        L = spectrum.L
        assert full.shape == (2 * L, 2 * L)
        assert np.array_equal(full, full.T)
        assert np.array_equal(F.theta_theta, full[:L, :L])


def test_row_i_is_mode_i_in_any_phase_order():
    # descending phases: row 0 is mode 0 (c = 0.7), not the smallest phase
    s = Spectrum([0.9, -0.6], [0.7, 0.3])
    F = total_fim(s, "qcels", 64, 16, 1)
    pos = F.index_of(0)
    assert F.theta_theta[0, 0] == F.theta_theta[pos, pos]
    assert F.theta_theta[0, 0] == pytest.approx(13749.562, rel=1e-6)


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


def test_qmegs_quadrature_panel_cap_edge(monkeypatch):
    # on uniform L=20, alpha 0.4 at T = 2000 the doubling converges at 4096
    # panels; one level fewer must raise instead of returning a coarse average
    s = make_spectrum("uniform", 20, 0.4)
    monkeypatch.setattr(fim_module, "_MAX_PANELS", 4096)
    blocks = _qmegs_expected_blocks(s, 2000)
    assert np.all(np.isfinite(blocks.theta_theta))
    monkeypatch.setattr(fim_module, "_MAX_PANELS", 2048)
    with pytest.raises(ArithmeticError, match="did not converge"):
        _qmegs_expected_blocks(s, 2000)


@pytest.mark.xfail(strict=True, raises=ArithmeticError,
                   reason="a phase near 0 brings |C| within 2.5e-12 of 1 near t = k pi; the "
                          "theta-theta block gets spikes a few 1e-6 wide that uniform panels "
                          "sample at random, so the doubling runs to the cap (ROADMAP item C)")
def test_qmegs_quadrature_converges_with_a_phase_near_zero():
    s = Spectrum([1e-6, 2.0], [0.5, 0.5])
    assert np.all(np.isfinite(_qmegs_expected_blocks(s, 12).theta_theta))


def test_qmegs_level_counts_an_aligned_node_by_its_limit(monkeypatch):
    # dyadic phases align at t = 8 pi; T puts node 5 of the panel [0.25, 0.5]
    # there, so that node's C = 1 and its real part takes the limit column
    s = Spectrum([0.25, -0.5, 0.75], [0.5, 0.3, 0.2])
    lefts, half, g = np.array([0.0, 0.25, 0.5, 0.75]), 1.0 / 8, fim_module._gl_nodes
    T = (2.0 * np.pi / 0.25) / (0.25 + half + half * g[5])
    traces = []
    error = fim_module._panel_error

    def spy(trace, half):
        traces.append(trace.copy())
        return error(trace, half)

    monkeypatch.setattr(fim_module, "_panel_error", spy)

    def dip(T):
        nodes = fim_module._ht_walk(s, T * ((lefts + half)[:, None] + half * g), np.ones((4, 32)))
        return min(min(np.min(dC), np.min(dS)) for *_, dC, dS in nodes)

    def level(T):
        settled, rest, _ = fim_module._qmegs_level(s, T, lefts, half, allowance=1.0)
        return (settled + rest)[:3, :3]

    block = level(T)
    assert dip(T) < fim_module._SINGULAR_TOL
    # (a) the node traces that decide settling count it as the block does
    assert np.isclose(np.concatenate(traces).sum(), np.trace(block), rtol=1e-12, atol=0.0)
    # (b) the limit is continuous: a shift that takes the node out of the
    # singular band (at 1 + 1e-9 it stays inside) barely moves the block;
    # with the aligned measurement dropped it moves by about 6e-4
    assert dip(T * (1.0 + 1e-9)) < fim_module._SINGULAR_TOL <= dip(T * (1.0 + 1e-7))
    moved = level(T * (1.0 + 1e-7)) - block
    assert np.max(np.abs(moved)) < 1e-5 * np.max(np.abs(block))


def _fine_level(s, T, panels=4096):
    # the folded time average at one fixed level of `panels` on [-1, 1],
    # summed directly: panels / 2 Gauss-Legendre panels on x in [0, 1]
    g, gw = np.polynomial.legendre.leggauss(32)
    half = 1.0 / panels
    mid = (2.0 * np.arange(panels // 2) + 1.0) * half
    x = mid[:, None] + half * g
    dens = 2.0 * np.exp(-0.5 * x**2) / (erf(1.0 / np.sqrt(2.0)) * np.sqrt(2.0 * np.pi))
    return _ht_blocks_weighted(s, T * x, half * gw * dens)


@pytest.mark.parametrize("alpha", [0.2, 0.8])
def test_settled_panels_keep_the_time_average_at_the_fine_level(alpha):
    # the doubling converged at 1024 panels (alpha 0.2) and 128 (alpha 0.8);
    # 4096 uniform panels are a reference far below the 1e-6 stop
    s = make_spectrum("uniform", 20, alpha)
    got = _qmegs_expected_blocks(s, 400).theta_theta
    want = _fine_level(s, 400).theta_theta
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def _settled_panels(monkeypatch, s, T):
    # (left edge, half-width, error ratio) of each panel that settled; the
    # ratio is its error estimate over its share of the stop, allowance
    # times its width, which settling holds at or below _SETTLE_SHARE
    panels, errors = [], []
    level, error = fim_module._qmegs_level, fim_module._panel_error

    def spy_error(trace, half):
        errors.append(error(trace, half))
        return errors[-1]

    def spy(spectrum, T, lefts, half, allowance=None, *known):
        errors.clear()
        out = level(spectrum, T, lefts, half, allowance, *known)
        if allowance is not None:
            ratio = np.concatenate(errors) / (allowance * 2.0 * half)
            panels.extend((lefts[j], half, ratio[j]) for j in np.flatnonzero(out[2]))
        return out

    monkeypatch.setattr(fim_module, "_panel_error", spy_error)
    monkeypatch.setattr(fim_module, "_qmegs_level", spy)
    _qmegs_expected_blocks(s, T)
    return panels


def test_a_panel_that_dips_below_the_floor_never_settles(monkeypatch):
    s = make_spectrum("uniform", 20, 0.4)
    g = np.polynomial.legendre.leggauss(32)[0]

    def dip(panel):
        # least min(1 - C^2, 1 - S^2) over the panel's own nodes
        left, half, _ = panel
        C, S = ht_expectations(s, 400 * (left + half + half * g))
        return np.min(np.minimum(1.0 - C**2, 1.0 - S**2))

    # the settled panel that comes closest to |C| or |S| = 1
    left, half, _ = panel = min(_settled_panels(monkeypatch, s, 400), key=dip)
    edge = dip(panel)
    assert edge >= fim_module._DIP_FLOOR
    monkeypatch.setattr(fim_module, "_DIP_FLOOR", edge * (1.0 - 1e-9))
    assert (left, half) in [p[:2] for p in _settled_panels(monkeypatch, s, 400)]
    monkeypatch.setattr(fim_module, "_DIP_FLOOR", edge * (1.0 + 1e-9))
    assert (left, half) not in [p[:2] for p in _settled_panels(monkeypatch, s, 400)]


def test_a_panel_settles_only_within_its_tenth_of_the_stop(monkeypatch):
    s = make_spectrum("uniform", 20, 0.4)
    # the settled panel whose error comes closest to its share of the stop
    left, half, ratio = max(_settled_panels(monkeypatch, s, 400), key=lambda p: p[2])
    assert 0.0 < ratio <= fim_module._SETTLE_SHARE
    monkeypatch.setattr(fim_module, "_SETTLE_SHARE", ratio * (1.0 + 1e-9))
    assert (left, half) in [p[:2] for p in _settled_panels(monkeypatch, s, 400)]
    monkeypatch.setattr(fim_module, "_SETTLE_SHARE", ratio * (1.0 - 1e-9))
    assert (left, half) not in [p[:2] for p in _settled_panels(monkeypatch, s, 400)]


def test_a_level_that_would_settle_every_panel_settles_none(monkeypatch, caplog):
    # settling them all would end the doubling before the theta-theta stop;
    # forced at every level, the average is plain doubling's finest level
    s = make_spectrum("uniform", 20, 0.4)
    level = fim_module._qmegs_level

    def settle_all(spectrum, T, lefts, half, allowance=None, *known):
        done_F, rest, done = level(spectrum, T, lefts, half, allowance, *known)
        if allowance is not None:
            return done_F + rest, 0.0 * rest, np.ones_like(done)
        return done_F, rest, done

    monkeypatch.setattr(fim_module, "_qmegs_level", settle_all)
    with caplog.at_level(logging.DEBUG, logger="qpe_bounds.fim"):
        got = _qmegs_expected_blocks(s, 400).full()
    (record,) = [r for r in caplog.records if r.name == "qpe_bounds.fim"]
    _, _, levels, _, settled, finest, _, _ = record.args
    assert settled == 0 and levels > 2
    want = _fine_level(s, 400, finest).full()
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))


def test_time_average_reports_its_work_in_one_debug_record(caplog):
    s = make_spectrum("uniform", 20, 0.4)
    with caplog.at_level(logging.DEBUG, logger="qpe_bounds.fim"):
        _qmegs_expected_blocks(s, 400)
    (record,) = [r for r in caplog.records if r.name == "qpe_bounds.fim"]
    assert record.levelno == logging.DEBUG
    T, start, levels, evaluated, settled, finest, rel, block = record.args
    assert block == "full" and record.getMessage().endswith(", full block")
    # the phase-only build names its block and runs the same levels: the
    # stop and the settling read the theta rows alone
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="qpe_bounds.fim"):
        _qmegs_expected_blocks(s, 400, overlaps_known=True)
    (theta,) = [r for r in caplog.records if r.name == "qpe_bounds.fim"]
    assert theta.args[-1] == "theta" and theta.getMessage().endswith(", theta block")
    assert theta.args[:6] == record.args[:6]
    # 2^ceil(log2(400 * 0.95 / 8)) = 64
    assert T == 400 and start == 64
    assert finest == start * 2 ** (levels - 1) <= fim_module._MAX_PANELS
    # settled panels left the doubling: fewer than the start / 2 (2^levels - 1)
    # half-line panels that uniform doubling evaluates
    assert 0 < settled < evaluated < start // 2 * (2**levels - 1)
    assert rel < fim_module._QUAD_REL_TOL
    assert (f"start {start} panels, {levels} levels, {evaluated} panels evaluated, "
            f"{settled} settled") in record.getMessage()


def test_time_average_past_the_cap_raises_before_walking_a_node(monkeypatch):
    # head_dense has max |theta| = 1, so T = 2^18 starts at 2^15 panels,
    # whose next level is the cap, and T = 2^18 + 8 starts at 2^16; the
    # first level settles nothing and cannot stop, so that one is refused
    s = make_spectrum("head_dense", 20, 0.4)

    def walk(*args):
        raise RuntimeError("walked a node")

    monkeypatch.setattr(fim_module, "_ht_walk", walk)
    with pytest.raises(RuntimeError, match="walked a node"):
        _qmegs_expected_blocks(s, 2**18)
    for T in (2**18 + 8, 1e6, np.finfo(float).max):
        with pytest.raises(ArithmeticError, match="did not converge"):
            _qmegs_expected_blocks(s, T)


def test_ht_blocks_are_additive_across_chunk_boundaries():
    s = Spectrum([0.7, -0.3, 2.1], [0.5, 0.3, 0.2])
    # 1..3000 walks three chunks; the halves split one mid-chunk
    t = np.arange(1.0, 3001.0)
    w = 1.0 + 0.5 * np.sin(t)
    whole = _ht_blocks_weighted(s, t, w).full()
    halves = (_ht_blocks_weighted(s, t[:1500], w[:1500])
              + _ht_blocks_weighted(s, t[1500:], w[1500:])).full()
    assert np.allclose(whole, halves, rtol=0.0, atol=1e-13 * np.max(np.abs(whole)))


def test_fisher_sums_are_exactly_symmetric():
    # every chunk adds A A^T of one buffer, which BLAS fills symmetrically,
    # so no builder symmetrizes; each case walks several chunks, with the
    # c rows and without them
    rng = np.random.default_rng(22)
    s = make_spectrum("uniform", 20, 0.4)
    t = rng.uniform(0.0, 3000.0, 5000)
    w = rng.uniform(0.5, 1.5, t.size)
    for known in (False, True):
        for F in (
            _ht_blocks_weighted(s, t, w, known).matrix,
            _qmegs_expected_blocks(s, 400, known).matrix,
            qft_fim(s, 14, known).matrix,
        ):
            assert F.shape == ((1 if known else 2) * s.L,) * 2
            assert np.array_equal(F, F.T)


def _exact_outcomes(s, times):
    # the four outcome probabilities (1 + C) / 2, (1 - C) / 2, (1 + S) / 2
    # and (1 - S) / 2, rows of a (4, n) array, to 50 digits at the walk's
    # own float64 half angles 0.5 theta t, so the rounding of theta t drops
    # out; the law's 1 is the overlaps' sum, which can differ from 1 by an ulp
    mpmath = pytest.importorskip("mpmath")
    out = []
    with mpmath.workdps(50):
        c = [mpmath.mpf(v) for v in s.overlaps]
        one = mpmath.fsum(c)
        for t in times:
            h = [2 * mpmath.mpf(v) for v in 0.5 * s.phases * t]
            C = mpmath.fsum(ci * mpmath.cos(hi) for ci, hi in zip(c, h))
            S = mpmath.fsum(ci * mpmath.sin(hi) for ci, hi in zip(c, h))
            out.append([float((one + C) / 2), float((one - C) / 2),
                        float((one + S) / 2), float((one - S) / 2)])
    return np.array(out).T


def test_walk_weights_are_relatively_precise_at_its_own_angles(monkeypatch):
    # with the limit column switched off, the yielded dC and dS are the
    # walk's own 1 - C^2 = 4 p_re0 p_re1 and 1 - S^2 = 4 p_im0 p_im1,
    # aligned neighbours included; the samplers read the law's outcome-0
    # probabilities p_re0 and p_im0, which sample_ht_exact gives at N_s = 1
    monkeypatch.setattr(fim_module, "_SINGULAR_TOL", 0.0)
    rng = np.random.default_rng(21)
    dyadic = Spectrum([0.25, -0.5, 0.75], [0.5, 0.3, 0.2])
    eps = 10.0 ** -np.arange(5.0, 10.0)
    # dyadic phases align at every multiple of 8 pi
    near = 8.0 * np.pi * np.outer(np.arange(1.0, 4.0), np.concatenate([1.0 + eps, 1.0 - eps]))
    # phases 0.25 and 0.75 both reach cos = -1 at t = 4 pi, where the
    # outcome-0 probability (1 + C) / 2 is small
    opposed = 4.0 * np.pi * np.concatenate([1.0 + eps, 1.0 - eps])
    cases = [
        (dyadic, near.ravel()),
        (make_spectrum("uniform", 20, 0.4), rng.uniform(0.0, 3000.0, 40)),
        (make_spectrum("uniform", 5, 0.8), rng.uniform(0.0, 3000.0, 40)),
        (dyadic, 10.0 ** rng.uniform(6.0, 9.0, 8) / 0.75),
        (Spectrum([0.25, 0.75], [0.6, 0.4]), opposed),
    ]
    for s, times in cases:
        (_, _, dC, dS), = fim_module._ht_walk(s, times, np.ones_like(times))
        want = _exact_outcomes(s, times)
        gaps = 4.0 * want[[0, 2]] * want[[1, 3]]
        assert np.max(np.abs(np.array([dC, dS]) - gaps) / gaps) <= 1e-11
        data = sample_ht_exact(s, Schedule(ProtocolKind.QMEGS, 1.0, times.size, times), 1)
        p = np.array([data.n_re0, data.n_im0])
        assert np.max(np.abs(p - want[[0, 2]]) / want[[0, 2]]) <= 1e-11
    # the naive 1 - C^2 must fail this: next to alignment it misses by up to 100%
    C, _ = ht_expectations(dyadic, near.ravel())
    want = _exact_outcomes(dyadic, near.ravel())
    gap = 4.0 * want[0] * want[1]
    assert np.max(np.abs(1.0 - C**2 - gap) / gap) > 1e-6


@pytest.mark.parametrize("family, alpha, T",
                         [("uniform", 0.4, 400), ("uniform", 0.8, 2000), ("head_dense", 0.2, 100)])
def test_time_average_does_not_depend_on_the_chunk_size(monkeypatch, family, alpha, T):
    # the walk takes flat node times; a chunk must hold whole panels, and
    # 64 nodes is two
    s = make_spectrum(family, 20, alpha)
    want = _qmegs_expected_blocks(s, T).full()
    for nodes in (64, 4096):
        monkeypatch.setattr(fim_module, "_CHUNK_NODES", nodes)
        got = _qmegs_expected_blocks(s, T).full()
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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


def test_qft_fim_memory_stays_flat_in_the_register_width():
    # the walk holds one (2L, chunk) gradient stack at a time; the whole
    # n = 20 grid would take about 1 GB
    s = make_spectrum("uniform", 20, 0.4)
    tracemalloc.start()
    try:
        qft_fim(s, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_g_i_definition_consistency():
    s = Spectrum([0.5], [1.0])
    T, N_t, N_s = 50, 10, 2
    F = total_fim(s, "qcels", T, N_t, N_s)
    want = F.theta_theta[0, 0] / (N_s * N_t * T**2)
    assert g_i(s, "qcels", T, N_t, N_s) == pytest.approx(want, rel=1e-12)
