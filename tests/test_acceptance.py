"""Acceptance gate: twelve end-to-end checks of the package's guarantees.

One test per numbered criterion, each printing a single line with the
measured values (visible with -s, or in the captured output on failure);
the pytest -v verdict line is the pass/fail record.  Two clauses that
the implemented formulas provably do not satisfy pointwise are narrowed
to their provable parts here and pinned by strict-xfail companions
carrying deterministic counterexamples, so the suite goes red if anyone
"fixes" the faithful Fisher factors by capping them.
"""

import time

import numpy as np
import pytest

from helpers import fd_fisher, ht_outcome_probs, qft_outcome_probs, random_spectrum
from qpe_bounds import (
    CampaignConfig,
    ProtocolSpec,
    Spectrum,
    chi,
    diag_ratio,
    f_i,
    f_i_max,
    fit_qft_histogram,
    g_i,
    gamma,
    ht_fim_single,
    make_spectrum,
    qft_fim,
    qft_probabilities,
    realize,
    rpe_fim_bounds,
    run_campaign,
    sample_ht_exact,
    squared_derivative_sum,
    squared_kernel_sum,
    sweep_bounds,
    total_fim,
)
from qpe_bounds.bench import _accounting, _one_trial, _wrap, write_rows_csv
from qpe_bounds.estimators import (
    estimate_csqpe,
    estimate_qcels,
    estimate_qcels_ml,
    estimate_qmegs,
)


def test_criterion_01_kernel_grid_identities():
    tic = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for M in (2 ** np.arange(11)).tolist():
        want_d = M**2 * (M**2 - 1.0) / 12.0
        for theta in rng.uniform(-np.pi, np.pi, 20):
            s2 = squared_kernel_sum(M, theta)
            worst = max(worst, abs(s2 - M**2) / M**2)
            d2 = squared_derivative_sum(M, theta)
            if M == 1:
                assert d2 == 0.0
            else:
                worst = max(worst, abs(d2 - want_d) / want_d)
    elapsed = time.time() - tic
    print(f"criterion 01: grid sums match M^2 and M^2(M^2-1)/12, "
          f"worst rel {worst:.2e} (tol 1e-9), {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_02_eigenstate_register_information():
    tic = time.time()
    s = Spectrum([0.7], [1.0])
    worst = 0.0
    for n in range(1, 13):
        got = qft_fim(s, n).theta_theta[0, 0]
        want = (4.0**n - 1.0) / 3.0
        worst = max(worst, abs(got - want) / want)
    elapsed = time.time() - tic
    print(f"criterion 02: eigenstate register information = (4^n-1)/3 for "
          f"n=1..12, worst rel {worst:.2e} (tol 1e-9), {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_03_schedule_constants():
    tic = time.time()
    g = gamma("qmegs")
    c = chi("qmegs")
    assert abs(g - 0.92) <= 0.005
    assert abs(c - 0.29) <= 0.005

    # Monte Carlo moments of the truncated-normal schedule, 1e6 samples.
    # Each scheduled time runs both circuits of the test pair, so the
    # linear cost moment is 2 E|t| / T.
    t = realize("qmegs", 1.0, 10**6, seed=33).times
    n = t.size
    m1 = 2.0 * np.abs(t).mean()
    se1 = 2.0 * np.abs(t).std(ddof=1) / np.sqrt(n)
    m2 = (t**2).mean()
    se2 = (t**2).std(ddof=1) / np.sqrt(n)
    assert abs(m1 - g) <= 3.0 * se1
    assert abs(m2 - c) <= 3.0 * se2

    # finite-T closed forms against brute-force schedule sums, written as
    # single divisions of exactly representable integers so equality is exact
    for T in (7, 97, 256, 1000):
        k = np.arange(1, T + 1, dtype=float)
        assert gamma("csqpe", T) == 2.0 * k.sum() / float(T) ** 2
        assert chi("csqpe", T) == (k**2).sum() / float(T) ** 3
    for N_t in (5, 77, 500):
        k = np.arange(1, N_t + 1, dtype=float)
        assert gamma("qcels", N_t=N_t) == 2.0 * k.sum() / float(N_t) ** 2
        assert chi("qcels", N_t=N_t) == (k**2).sum() / float(N_t) ** 3
    elapsed = time.time() - tic
    print(f"criterion 03: gamma={g:.6f} (0.92±0.005), chi={c:.6f} (0.29±0.005); "
          f"MC |m1-gamma|={abs(m1-g):.2e} <= 3SE={3*se1:.2e}, "
          f"|m2-chi|={abs(m2-c):.2e} <= 3SE={3*se2:.2e}; finite-T forms exact; "
          f"{elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_04_fisher_blocks_match_fd_oracle():
    tic = time.time()
    rng = np.random.default_rng(404)
    worst_ht = worst_qft = 0.0
    for _ in range(50):
        s = random_spectrum(rng)
        t = float(rng.uniform(0.3, 5.0))
        got = ht_fim_single(s, t).full()
        want = fd_fisher(lambda th, c: ht_outcome_probs(th, c, t), s.phases, s.overlaps)
        scale = np.max(np.abs(want)) + 1e-300
        worst_ht = max(worst_ht, np.max(np.abs(got - want)) / scale)

        n = int(rng.integers(1, 7))
        got = qft_fim(s, n).full()
        want = fd_fisher(lambda th, c: qft_outcome_probs(th, c, n), s.phases, s.overlaps)
        scale = np.max(np.abs(want)) + 1e-300
        worst_qft = max(worst_qft, np.max(np.abs(got - want)) / scale)
    elapsed = time.time() - tic
    print(f"criterion 04: 50 random spectra, analytic blocks vs central-difference "
          f"oracle, worst rel: test-pair {worst_ht:.2e}, register {worst_qft:.2e} "
          f"(tol 1e-5), {elapsed:.2f}s")
    assert worst_ht < 1e-5
    assert worst_qft < 1e-5
    assert elapsed < 60.0


def test_criterion_05_gain_factor_and_efficiency_sandwich():
    # The aligned-time value f_i_max is not a pointwise ceiling on f_i, and
    # for subdominant modes the schedule-averaged efficiency g_i can exceed
    # f_i_max * chi * c_i^2 as well (see the xfail pins below).  This test
    # asserts every clause that holds: the hard floors everywhere, the exact
    # aligned-time value, and the full sandwich for the dominant mode of the
    # canonical spectrum families.
    tic = time.time()

    # floors and aligned-time equality on 200 arbitrary draws
    rng = np.random.default_rng(506)
    for _ in range(200):
        L = int(rng.integers(1, 6))
        th = np.sort(rng.uniform(-np.pi, np.pi, L))
        c = rng.dirichlet(np.ones(L))
        s = Spectrum(th, c)
        t = float(rng.uniform(-100, 100))
        for lab in range(L):
            assert f_i(s, lab, t) >= 1.0 - 1e-9
            top = f_i_max(s, lab)
            assert abs(f_i(s, lab, 0.0) - top) <= 1e-9 * top

    # full sandwich for the dominant mode, 200 canonical-family draws
    rng = np.random.default_rng(505)
    for _ in range(200):
        fam = ["uniform", "head_dense", "tail_dense"][int(rng.integers(3))]
        L = int(rng.integers(2, 21))
        alpha = float(rng.uniform(0.1, 0.9))
        s = make_spectrum(fam, L, alpha)
        kind = ["qmegs", "csqpe", "qcels"][int(rng.integers(3))]
        T = float(rng.integers(20, 201))
        N_t = int(rng.integers(20, 201))
        g = g_i(s, kind, T, N_t, 1, label=0)
        base = chi(kind, T, N_t) * s.overlap(0) ** 2
        assert g >= base * (1.0 - 1e-8)
        assert g <= f_i_max(s, 0) * base * (1.0 + 1e-8)

    # floor for every mode on 200 arbitrary draws
    rng = np.random.default_rng(507)
    for _ in range(200):
        L = int(rng.integers(1, 6))
        while True:
            th = np.sort(rng.uniform(-np.pi, np.pi, L))
            if L == 1 or np.min(np.diff(th)) >= 0.15:
                break
        c = rng.dirichlet(np.ones(L))
        s = Spectrum(th, c)
        kind = ["qmegs", "csqpe", "qcels"][int(rng.integers(3))]
        T = float(rng.integers(10, 201))
        N_t = int(rng.integers(10, 201))
        lab = int(rng.integers(L))
        g = g_i(s, kind, T, N_t, 1, label=lab)
        assert g >= chi(kind, T, N_t) * s.overlap(lab) ** 2 * (1.0 - 1e-8)

    elapsed = time.time() - tic
    print("criterion 05: gain floor f_i >= 1 and aligned-time equality on "
          "200/200 arbitrary draws; dominant-mode sandwich "
          "chi c0^2 <= g_0 <= f_0_max chi c0^2 on 200/200 family draws; "
          "efficiency floor on 200/200 arbitrary draws.  Upper clauses hold "
          "only in that narrowed scope; the strict-xfail pins below carry "
          f"counterexamples.  {elapsed:.2f}s")
    assert elapsed < 60.0


@pytest.mark.xfail(strict=True,
                   reason="the aligned-time gain is not a pointwise ceiling: "
                          "a pinned 3-mode spectrum exceeds it at a generic time")
def test_criterion_05_pointwise_gain_ceiling_pinned_false():
    c = np.array([0.27241843, 0.52721892, 0.20036266])
    s = Spectrum([-0.88147967, 0.80420184, 2.10798931], c / c.sum())
    assert f_i(s, 0, 14.611250464900042) <= f_i_max(s, 0) + 1e-8


@pytest.mark.xfail(strict=True,
                   reason="for a weak mode the schedule-averaged efficiency "
                          "exceeds the aligned-time envelope (pinned 2.26x)")
def test_criterion_05_subdominant_efficiency_ceiling_pinned_false():
    c = np.array([0.12087241, 0.87912759])
    s = Spectrum([-0.58434434, 2.25675902], c / c.sum())
    g = g_i(s, "qmegs", 28.0, 102, 1, label=0)
    assert g <= f_i_max(s, 0) * chi("qmegs") * s.overlap(0) ** 2 * (1.0 + 1e-8)


def test_criterion_06_diagonal_surrogate_quality():
    tic = time.time()
    s = make_spectrum("uniform", 20, 0.4)
    ratios = {}
    for kind, T, N_t in (("qmegs", 12800, 50), ("csqpe", 12800, 50)):
        ratios[kind] = diag_ratio(total_fim(s, kind, T, N_t, 1), 0)
    _, _, _, _, fim = _accounting(
        s, ProtocolSpec("qcels", T=[12800], N_t=50, N_s=1), 12800, 0
    )
    ratios["qcels"] = diag_ratio(fim, 0)
    ratios["qft"] = diag_ratio(total_fim(s, "qft", 2**14 - 1, 1, 1), 0)

    h = make_spectrum("head_dense", 20, 0.4)
    breakdown = diag_ratio(total_fim(h, "csqpe", 100, 50, 1), 0)
    elapsed = time.time() - tic
    print("criterion 06: diag ratio I_00 (I^-1)_00 at deep horizons: "
          + ", ".join(f"{k}={v:.6f}" for k, v in ratios.items())
          + f" (all <= 1.1); head-dense breakdown {breakdown:.3e} > 1.2; "
          f"{elapsed:.2f}s")
    for k, v in ratios.items():
        assert v <= 1.1, k
        assert v >= 1.0 - 1e-9, k
    assert breakdown > 1.2
    assert elapsed < 300.0


def test_criterion_07_scaling_of_efficiency_with_overlap():
    tic = time.time()
    alphas = [round(0.1 * k, 1) for k in range(1, 10)]
    cfgs = {
        "qft": ("qft", 2**14 - 1, 1),
        "qmegs": ("qmegs", 12800, 50),
        "csqpe": ("csqpe", 12800, 50),
        "qcels": ("qcels", 12800, 50),
    }
    c0s, gs = [], {k: [] for k in cfgs}
    for a in alphas:
        s = make_spectrum("uniform", 20, a)
        c0s.append(s.overlap(0))
        for name, (kind, T, N_t) in cfgs.items():
            gs[name].append(g_i(s, kind, T, N_t, 1, label=0))
    c0s = np.array(c0s)
    slopes = {k: float(np.polyfit(np.log(c0s), np.log(gs[k]), 1)[0]) for k in cfgs}
    qft_ratio = np.array(gs["qft"]) / (c0s / 3.0)
    elapsed = time.time() - tic
    print("criterion 07: log-log slope of g0 vs c0: "
          + ", ".join(f"{k}={v:.4f}" for k, v in slopes.items())
          + f"; register intercept g0/(c0/3) in "
          f"[{qft_ratio.min():.4f}, {qft_ratio.max():.4f}]; {elapsed:.2f}s")
    assert abs(slopes["qft"] - 1.0) <= 0.15
    for k in ("qmegs", "csqpe", "qcels"):
        assert abs(slopes[k] - 2.0) <= 0.15, k
    assert np.all(np.abs(qft_ratio - 1.0) <= 0.2)
    assert elapsed < 300.0


def test_criterion_08_cost_bound_crossover():
    tic = time.time()
    cfg = CampaignConfig(
        spectrum="uniform", L=20,
        alphas=[round(0.1 * k, 1) for k in range(1, 10)],
        protocols=[
            ProtocolSpec("qft", T=[255], N_s=1),
            ProtocolSpec("qmegs", T=[200], N_t=50, N_s=1),
            ProtocolSpec("csqpe", T=[200], N_t=50, N_s=1),
            ProtocolSpec("qcels", T=[200], N_t=50, N_s=1),
        ],
        trials=2, seed=0,
    )
    rows, crossover = sweep_bounds(cfg)
    by_alpha = {}
    for r in rows:
        assert r.error == "", r.error
        by_alpha.setdefault(round(r.alpha, 1), {})[r.protocol] = r.bound
    low_c0 = by_alpha[0.9]   # alpha=0.9 -> c0 ~ 0.11
    high_c0 = by_alpha[0.1]  # alpha=0.1 -> c0 = 0.90
    qft_low, ht_low = low_c0["qft"], min(v for k, v in low_c0.items() if k != "qft")
    qft_high, ht_high = high_c0["qft"], min(v for k, v in high_c0.items() if k != "qft")
    elapsed = time.time() - tic
    print(f"criterion 08: register/test-pair bound crossover at c0={crossover:.4f} "
          f"(window [0.5, 0.9]); at c0=0.11 register {qft_low:.3e} < best pair "
          f"{ht_low:.3e}; at c0=0.90 best pair {ht_high:.3e} < register "
          f"{qft_high:.3e}; {elapsed:.2f}s")
    assert crossover is not None
    assert 0.5 <= crossover <= 0.9
    assert qft_low < ht_low
    assert ht_high < qft_high
    assert elapsed < 120.0


def test_criterion_09_exponential_ladder_envelope():
    # The floor N_s c_i^2 (4T^2-1)/3 is hard (per-time gain >= 1); the upper
    # value multiplies it by the aligned-time gain and is exact only at L=1,
    # where the gain is identically 2.  The xfail pin below shows a 3-mode
    # spectrum whose summed ladder diagonal exceeds that envelope.
    tic = time.time()
    rng = np.random.default_rng(909)
    N_s = 7
    for _ in range(10):
        s = random_spectrum(rng)
        for T in (8, 64, 512):
            F = total_fim(s, "rpe", T, 1, N_s)
            for lab in s.labels:
                lo, hi = rpe_fim_bounds(s, T, N_s, label=lab)
                pos = F.index_of(lab)
                entry = float(F.theta_theta[pos, pos])
                assert lo <= entry * (1.0 + 1e-12)
                assert hi == pytest.approx(f_i_max(s, lab) * lo, rel=1e-12)

    s1 = Spectrum([0.9], [1.0])
    for T in (8, 64, 512):
        F = total_fim(s1, "rpe", T, 1, N_s)
        lo, hi = rpe_fim_bounds(s1, T, N_s)
        entry = float(F.theta_theta[0, 0])
        assert entry == pytest.approx(hi, rel=1e-12)
        assert entry == pytest.approx(2.0 * lo, rel=1e-12)
    elapsed = time.time() - tic
    print("criterion 09: ladder-summed diagonal >= N_s c_i^2 (4T^2-1)/3 for "
          "10 spectra x T in {8, 64, 512}, every mode; single-mode diagonal "
          "equals the envelope top exactly.  The envelope top is not a bound "
          f"for multi-mode spectra (xfail pin below).  {elapsed:.2f}s")
    assert elapsed < 30.0


@pytest.mark.xfail(strict=True,
                   reason="ladder diagonal of a weak mode exceeds the "
                          "aligned-time envelope (pinned 1.30x at T=8)")
def test_criterion_09_upper_envelope_pinned_false():
    c = np.array([0.0276721, 0.93270644, 0.03962146])
    s = Spectrum([-2.61816296, -2.00942049, 2.56031575], c / c.sum())
    lo, hi = rpe_fim_bounds(s, 8, 1, label=0)
    F = total_fim(s, "rpe", 8, 1, 1)
    pos = F.index_of(0)
    assert float(F.theta_theta[pos, pos]) <= hi * (1.0 + 1e-8)


def test_criterion_10_estimator_efficiency_ratios():
    # 300 seeded trials per protocol: enough that the sample median of the
    # per-trial ratio R = T t_total err^2 / (gamma/g0) sits close to the
    # population value (the 95% bootstrap CI spans about +-0.1 here).
    tic = time.time()
    s = make_spectrum("uniform", 20, 0.4)
    th0 = s.phase(0)
    cfgs = [
        ("qmegs", ProtocolSpec("qmegs", T=[1000], N_t=5000, N_s=2), 1000),
        ("qcels", ProtocolSpec("qcels", T=[1024], N_t=500, N_s=10), 1024),
        ("csqpe", ProtocolSpec("csqpe", T=[1000], N_t=500, N_s=20, sparsity=4), 1000),
        ("qft", ProtocolSpec("qft", T=[4095], N_s=100000), 4095),
    ]
    med = {}
    for idx, (name, ps, T) in enumerate(cfgs):
        _, _, bound, ttl, _ = _accounting(s, ps, T, 0)
        hats = list(map(lambda k: _one_trial(s, ps, T, 42, idx, k), range(300)))
        sq = _wrap(np.array(hats) - th0) ** 2
        med[name] = float(T * ttl * np.median(sq) / bound)
    elapsed = time.time() - tic
    print("criterion 10: median efficiency ratio over 300 trials: "
          + ", ".join(f"{k}={v:.3f}" for k, v in med.items())
          + f"; {elapsed:.1f}s")
    assert 0.5 <= med["qmegs"] <= 3.0
    assert 0.5 <= med["qft"] <= 3.0
    assert med["qcels"] > med["qmegs"]
    assert med["csqpe"] > med["qmegs"]
    assert elapsed < 900.0


def test_criterion_11_noiseless_single_mode_exactness():
    tic = time.time()
    theta0 = -0.85
    s = Spectrum([theta0], [1.0])
    errs = {}

    d = sample_ht_exact(s, realize("qmegs", 128.0, 400, seed=7))
    errs["qmegs"] = abs(estimate_qmegs(d, 128.0).theta_hat - theta0)

    d = sample_ht_exact(s, realize("qcels", 128.0, 100))
    errs["qcels"] = abs(estimate_qcels(d).theta_hat - theta0)

    d = sample_ht_exact(s, realize("csqpe", 128, 200, seed=3))
    errs["csqpe"] = abs(estimate_csqpe(d, 1).theta_hat - theta0)

    levels = [sample_ht_exact(s, realize("qcels", T, 64)) for T in (16.0, 32.0, 64.0, 128.0)]
    errs["ml-qcels"] = abs(estimate_qcels_ml(levels).theta_hat - theta0)

    est = fit_qft_histogram(qft_probabilities(s, 7), 7)
    errs["curvefit-qft"] = abs(float(_wrap(est.theta_hat - theta0)))

    elapsed = time.time() - tic
    print("criterion 11: noiseless single-mode recovery errors: "
          + ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
          + f" (tol 1e-6), {elapsed:.2f}s")
    for k, v in errs.items():
        assert v <= 1e-6, k
    assert elapsed < 10.0


def test_criterion_12_reproducible_benchmark_csv(tmp_path):
    tic = time.time()
    cfg = CampaignConfig(
        spectrum="uniform", L=3, alphas=[0.4],
        protocols=[ProtocolSpec("qmegs", T=[20], N_t=40, N_s=5)],
        trials=3, seed=11,
    )
    p1, p2, p3 = (tmp_path / f"run{k}.csv" for k in (1, 2, 3))
    write_rows_csv(run_campaign(cfg), p1, cfg.seed)
    write_rows_csv(run_campaign(cfg), p2, cfg.seed)
    cfg_other = CampaignConfig(
        spectrum="uniform", L=3, alphas=[0.4],
        protocols=[ProtocolSpec("qmegs", T=[20], N_t=40, N_s=5)],
        trials=3, seed=12,
    )
    write_rows_csv(run_campaign(cfg_other), p3, cfg_other.seed)
    b1, b2, b3 = p1.read_bytes(), p2.read_bytes(), p3.read_bytes()
    elapsed = time.time() - tic
    print(f"criterion 12: same config+seed gives byte-identical CSV "
          f"({len(b1)} bytes); a different seed changes it; {elapsed:.2f}s")
    assert b1 == b2
    assert b1 != b3
    assert elapsed < 60.0
