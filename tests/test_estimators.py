"""Estimator behavior on exact and sampled data."""

import tracemalloc

import numpy as np
import pytest

from qpe_bounds import (
    Spectrum,
    estimate_csqpe,
    estimate_curvefit_qft,
    estimate_qcels,
    estimate_qcels_ml,
    estimate_qmegs,
    fit_qft_histogram,
    make_spectrum,
    qft_probabilities,
    realize,
    sample_ht,
    sample_ht_exact,
    sample_qft,
)
from qpe_bounds.bench import qcels_levels
from qpe_bounds.errors import EmptyData, NoPeaksDetected, ScheduleMismatch
from qpe_bounds.estimators import (
    _filtered,
    _fit_start,
    _gridding,
    _near,
    _peak,
    _scan,
    _wrap,
)
from qpe_bounds.simulate import HtSample


THETA0 = -0.85


def _three_mode():
    return Spectrum([THETA0, 0.3, 1.7], [0.7, 0.2, 0.1])


def test_qmegs_exact_data_recovers_dominant_phase():
    s = _three_mode()
    T = 200
    sched = realize("qmegs", T, 2000, seed=7)
    est = estimate_qmegs(sample_ht_exact(s, sched), T)
    # background modes leak ~1/(T gap) into the filtered peak position
    assert abs(est.theta_hat - THETA0) < 1e-4


def test_qmegs_noisy_data_stays_in_main_lobe():
    s = _three_mode()
    T = 200
    sched = realize("qmegs", T, 500, seed=3)
    est = estimate_qmegs(sample_ht(s, sched, 50, seed=9), T)
    assert abs(est.theta_hat - THETA0) < 5.0 / T


def test_qmegs_grid_controls():
    s = _three_mode()
    T = 50
    data = sample_ht_exact(s, realize("qmegs", T, 300, seed=1))
    diag = estimate_qmegs(data, T).diagnostics
    assert diag["grid_step"] <= 0.5 / T
    assert diag["grid_points"] == int(np.ceil(4.0 * np.pi * T))


def test_qmegs_reports_peak_and_residual():
    # one mode: z_k = exp(i theta t_k) exactly, so |G| peaks at 1 and the
    # single-exponential fit leaves nothing
    N = 400
    data = sample_ht_exact(Spectrum([THETA0], [1.0]), realize("qmegs", 80, N, seed=2))
    diag = estimate_qmegs(data, 80).diagnostics
    assert abs(diag["peak"] - 1.0) < 1e-9
    assert abs(diag["residual"]) < 1e-9 * N


def test_peak_masks_the_taken_centers():
    # noiseless two-tone signal: the strong tone wins the scan; once it is
    # taken, the weak one does, polished to within a quarter cell.  The mask
    # spans two cells either side, where the strong lobe falls to 2/pi of
    # its peak (0.38 here, below the weak tone's 0.45)
    T = 100
    times = np.arange(1, T + 1, dtype=float)
    z = 0.6 * np.exp(0.5j * times) + 0.45 * np.exp(-1.2j * times)
    step = np.pi / (2.0 * T)
    strong, _, _, K = _peak(z, times, step)
    assert abs(strong - 0.5) < 0.25 * (2.0 * np.pi / K)
    weak, _, _, _ = _peak(z, times, step, [strong])
    assert abs(weak + 1.2) < 0.25 * (2.0 * np.pi / K)


def test_qmegs_empty_data():
    empty = HtSample(np.array([]), np.array([]), np.array([]), np.array([]), np.array([]), 1.0)
    with pytest.raises(EmptyData):
        estimate_qmegs(empty, 10)


def test_qcels_exact_single_mode_is_machine_precision():
    s = Spectrum([THETA0], [1.0])
    sched = realize("qcels", 50, 200, seed=0)
    est = estimate_qcels(sample_ht_exact(s, sched))
    assert abs(est.theta_hat - THETA0) < 5e-9
    assert abs(est.amplitudes[0] - 1.0) < 1e-7
    assert est.diagnostics["residual"] < 1e-12


def test_qcels_dominant_mode_with_background():
    s = _three_mode()
    sched = realize("qcels", 30, 120, seed=0)
    est = estimate_qcels(sample_ht_exact(s, sched))
    # single-exponential model is biased by the two background modes
    assert abs(est.theta_hat - THETA0) < 0.02
    assert abs(est.amplitudes[0]) > 0.5


def test_qcels_requires_arithmetic_grid():
    s = Spectrum([0.5], [1.0])
    sched = realize("qmegs", 30, 60, seed=2)  # random times
    with pytest.raises(ScheduleMismatch):
        estimate_qcels(sample_ht_exact(s, sched))


def test_qcels_ml_exact_single_mode():
    s = Spectrum([THETA0], [1.0])
    levels = [
        sample_ht_exact(s, realize("qcels", h, 64, seed=0))
        for h in qcels_levels(256, 64)
    ]
    est = estimate_qcels_ml(levels)
    assert abs(est.theta_hat - THETA0) < 1e-9


def test_qcels_ml_validates_levels():
    s = Spectrum([0.5], [1.0])
    with pytest.raises(EmptyData):
        estimate_qcels_ml([])
    lvl = sample_ht_exact(s, realize("qcels", 16, 8, seed=0))
    with pytest.raises(ScheduleMismatch):
        estimate_qcels_ml([lvl, lvl])  # horizons must strictly increase


def test_csqpe_exact_recovers_all_modes():
    s = _three_mode()
    sched = realize("csqpe", 40, 150, seed=4)
    est = estimate_csqpe(sample_ht_exact(s, sched), sparsity=3)
    assert abs(est.theta_hat - THETA0) < 1e-7
    found = np.sort(est.diagnostics["thetas"])
    assert np.allclose(found, s.phases, atol=1e-7)
    # amplitudes sorted by magnitude track the overlaps
    assert np.allclose(np.abs(est.amplitudes), [0.7, 0.2, 0.1], atol=1e-6)
    assert est.diagnostics["residual"] < 1e-10


def test_csqpe_validation():
    s = Spectrum([0.5], [1.0])
    data = sample_ht_exact(s, realize("csqpe", 10, 5, seed=0))
    with pytest.raises(ValueError):
        estimate_csqpe(data, sparsity=0)
    empty = HtSample(np.array([]), np.array([]), np.array([]), np.array([]), np.array([]), 1.0)
    with pytest.raises(EmptyData):
        estimate_csqpe(empty, sparsity=1)


def test_histogram_fit_exact_probabilities():
    s = _three_mode()
    n = 8
    est = fit_qft_histogram(qft_probabilities(s, n), n)
    assert abs(est.theta_hat - THETA0) < 1e-6
    assert est.diagnostics["peaks"] >= 2


def test_histogram_fit_recovers_exact_three_mode_mixtures():
    # exact probabilities of a three-mode mixture lie in the model, so the
    # fit must reach them.  Both dominant phases sit >= 0.11 bin off the
    # grid at every n: near the grid a phase is poorly identified even from
    # exact data, because its probabilities are nearly stationary in it
    for phases, overlaps in (
        ((-0.449, 0.721, 2.971), (0.41, 0.24, 0.35)),
        ((-1.403, 1.811, 2.541), (0.3, 0.26, 0.44)),
    ):
        s = Spectrum(phases, overlaps)
        dominant = s.phases[np.argmax(s.overlaps)]
        for n in (6, 8, 10):
            est = fit_qft_histogram(qft_probabilities(s, n), n)
            assert abs(est.theta_hat - dominant) <= 1e-9, (phases, n)
            assert est.diagnostics["residual"] <= 1e-20, (phases, n)


def test_fit_start_is_exact_on_a_single_mode():
    # one mode at 2 pi (j + f) / M: the two-bin start is its center, so the
    # fit only confirms it; a mode on a bin starts _START_FLOOR off, where
    # dK does not vanish, and still converges
    for n in (4, 8, 12):
        M = 2**n
        for j in (0, 5, M // 2 - 1, M - 1):
            for f in (-0.49, -0.25, -0.01, 0.0, 0.01, 0.3, 0.49):
                theta = np.pi - (np.pi - 2.0 * np.pi * (j + f) / M) % (2.0 * np.pi)
                p = qft_probabilities(Spectrum([theta], [1.0]), n)
                est = fit_qft_histogram(p, n)
                if f == 0.0:
                    assert abs(_wrap(est.theta_hat - theta)) <= 1e-8 * 2.0 * np.pi / M
                    continue
                start = _fit_start(p, np.array([np.argmax(p)]))[0]
                assert abs(_wrap(start - theta)) <= 1e-12, (n, j, f)
                assert abs(_wrap(est.theta_hat - theta)) <= 1e-12, (n, j, f)
                assert est.diagnostics["fit_evals"] <= 3, (n, j, f)


def test_histogram_fit_validation():
    with pytest.raises(ValueError):
        fit_qft_histogram(np.ones(10) / 10.0, 4)  # length is not 2^n
    with pytest.raises(ValueError, match="n <= 22"):
        fit_qft_histogram(np.ones(4) / 4.0, 23)  # too wide, refused before the length
    with pytest.raises(NoPeaksDetected):
        fit_qft_histogram(np.zeros(16), 4)


def test_curvefit_qft_on_sampled_outcomes():
    s = _three_mode()
    n = 8
    sample = sample_qft(s, n, 20000, seed=6)
    est = estimate_curvefit_qft(sample)
    assert abs(est.theta_hat - THETA0) < 2.0 * np.pi / 2**n


def test_mirrored_spectrum_negates_estimates():
    s = _three_mode()
    m = Spectrum(-s.phases, s.overlaps)
    T = 100
    sched = realize("qmegs", T, 800, seed=5)
    a = estimate_qmegs(sample_ht_exact(s, sched), T).theta_hat
    b = estimate_qmegs(sample_ht_exact(m, sched), T).theta_hat
    assert a == pytest.approx(-b, abs=1e-6)


def test_direct_sum_on_a_short_grid():
    rng = np.random.default_rng(8)
    times = rng.uniform(0.0, 40.0, 300)
    z = np.exp(1j * 0.7 * times) + 0.1 * (rng.normal(size=300) + 1j * rng.normal(size=300))
    grid = 0.7 + np.linspace(-0.05, 0.05, 33)
    grid[7] += 1e-5
    want = np.array([np.mean(z * np.exp(-1j * x * times)) for x in grid])
    assert np.max(np.abs(_filtered(z, times, grid) - want)) < 1e-12


@pytest.mark.parametrize("layout", ["random", "integer", "arithmetic", "wrapped", "nudged"])
@pytest.mark.parametrize("T", [3, 40, 1000])
def test_scan_matches_direct_sum(layout, T):
    # the three Hadamard-test layouts: truncated-normal-like real times with
    # |t| <= T (QMEGS), integers 1..T (CSQPE), k h / N_t (QCELS); whole
    # times in [-4T, 4T], which wrap mod K both ways; and the CSQPE layout
    # with one time off the integers, which leaves the exact path
    rng = np.random.default_rng(T)
    N = 300
    times = {
        "random": rng.uniform(-T, T, N),
        "integer": rng.integers(1, T + 1, N).astype(float),
        "arithmetic": np.arange(1, N + 1) * T / N,
        "wrapped": rng.integers(-4 * T, 4 * T + 1, N).astype(float),
        "nudged": rng.integers(1, T + 1, N) + (np.arange(N) == N // 2) / 3.0,
    }[layout]
    z = np.exp(1j * 0.7 * times) + 0.3 * (rng.normal(size=N) + 1j * rng.normal(size=N))
    # whole times take the exact DFT: only the reference's own rounding of
    # x t, up to |x t| eps a term, stays
    bound = 1e-12 if layout in ("integer", "wrapped") else 1e-11
    # even, odd, QMEGS; below 2 _SPREAD cells the padded grid folds onto
    # the fine one more than once
    for K in (4 * T, 4 * T + 1, int(np.ceil(4.0 * np.pi * T)), 1, 2, 3, 7):
        xs = -np.pi + (np.arange(K) + 0.5) * (2.0 * np.pi / K)
        assert np.max(np.abs(_scan(z, times, K) - _filtered(z, times, xs))) <= bound
        # the per-K constants are shared by every later scan at this K
        deconv = _gridding(K)[3]
        with pytest.raises(ValueError, match="read-only"):
            deconv[0] = 0.0


def test_taken_cells_by_index_match_the_full_grid():
    # _peak masks the cells near each taken centre from a window around the
    # centre's own cell; the mask must be the full-grid one, at every K
    rng = np.random.default_rng(23)
    for K in (1, 2, 3, 6, 7, 8, 101, 4000, 12567):
        cell = 2.0 * np.pi / K
        xs = -np.pi + (np.arange(K) + 0.5) * cell
        centres = [
            rng.uniform(-np.pi - cell, np.pi + cell, 200),
            [np.pi, -np.pi, np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0)],
            np.pi - rng.uniform(0.0, 3.0 * cell, 20),
            -np.pi + rng.uniform(0.0, 3.0 * cell, 20),
            xs[:: max(1, K // 50)],
            xs[:: max(1, K // 50)] + 2.0 * cell,
            xs[:: max(1, K // 50)] - 0.5 * cell,
        ]
        for s in np.concatenate(centres).tolist():
            want = np.flatnonzero(np.abs(_wrap(xs - s)) < 2.0 * cell)
            assert np.array_equal(np.unique(_near(xs, cell, s)), want), (K, s)


def test_polish_evaluations_are_reported():
    s = _three_mode()
    data = sample_ht_exact(s, realize("qmegs", 50, 300, seed=1))
    assert estimate_qmegs(data, 50).diagnostics["polish_evals"] >= 1
    est = estimate_csqpe(sample_ht_exact(s, realize("csqpe", 40, 150, seed=4)), sparsity=3)
    # one polish per greedy pick and per atom in each of four sweeps
    assert est.diagnostics["polish_evals"] >= 3 + 4 * 3
    levels = [sample_ht_exact(s, realize("qcels", h, 64)) for h in qcels_levels(256, 64)]
    # one polish per level
    assert estimate_qcels_ml(levels).diagnostics["polish_evals"] >= len(levels)


def test_qmegs_memory_stays_flat_at_deep_horizons():
    # T = 1e5, N_t = 5000: the scan's 1.26M cells must not cost memory in
    # proportion to N_t x cells
    T, N_t = 100_000, 5000
    data = sample_ht(_three_mode(), realize("qmegs", T, N_t, seed=2), 2, seed=3)
    tracemalloc.start()
    try:
        est = estimate_qmegs(data, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25e9
    assert est.diagnostics["grid_points"] > 1_000_000


def test_curvefit_trajectory_is_pinned():
    # theta_hat and detected peaks of three seeded criterion-10 register
    # fits, recorded with the sinc-evaluated kernel columns that the
    # closed-form grid kernel replaced.  The pins hold the fit, not the
    # sampler: each histogram is drawn by inverse CDF from its seed's uniforms
    spectrum = make_spectrum("uniform", 20, 0.4)
    cdf = np.cumsum(qft_probabilities(spectrum, 12))
    pins = {1: -0.9500004117642367, 2: -0.9500017263243774, 3: -0.9500050775129139}
    for seed, theta_hat in pins.items():
        u = np.random.default_rng(seed).random(100_000)
        outcomes = np.searchsorted(cdf, u, side="right")
        p_hat = np.bincount(outcomes, minlength=4096) / u.size
        est = fit_qft_histogram(p_hat, 12, n_shots=u.size)
        assert abs(est.theta_hat - theta_hat) <= 1e-9
        assert est.diagnostics["peaks"] == 5


def test_curvefit_reports_its_model_evaluations():
    # register fits at the pinned settings converge in about ten joint steps
    spectrum = make_spectrum("uniform", 20, 0.4)
    for seed in (1, 2, 3):
        sample = sample_qft(spectrum, 12, 100_000, seed=seed)
        evals = estimate_curvefit_qft(sample).diagnostics["fit_evals"]
        assert 1 <= evals <= 60
