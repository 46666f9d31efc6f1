"""Campaign driver, CSV output and the command-line front end."""

import csv
import importlib.util
import json
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qpe_bounds import (
    CampaignConfig,
    ProtocolSpec,
    check_diag,
    cost_product_bound,
    estimate_curvefit_qft,
    estimate_qmegs,
    g_i,
    gamma,
    gi_sweep,
    run_campaign,
    sweep_bounds,
    t_total,
    total_fim,
    make_spectrum,
    read_ht_csv,
    read_qft_csv,
    __version__,
)
from qpe_bounds import bench as bench_module
from qpe_bounds import estimators as estimators_module
from qpe_bounds.bench import (
    _one_trial,
    accounting,
    emit_samples,
    qcels_levels,
    write_rows_csv,
)
from qpe_bounds.cli import _build_parser, _load_config, main


def _config_dict(**over):
    base = {
        "spectrum": "uniform",
        "L": 3,
        "alphas": [0.4],
        "protocols": [{"kind": "qmegs", "T": [20], "N_t": 50, "N_s": 5}],
        "trials": 3,
        "seed": 11,
    }
    base.update(over)
    return base


def test_protocol_spec_coercion_and_validation():
    spec = ProtocolSpec("qcels", 16, N_t=4)
    assert spec.T == [16] and spec.N_s == 1
    assert ProtocolSpec("qmegs", T=20, N_t=40).T == [20]
    direct = ProtocolSpec("qft", [7])
    assert direct.kind.value == "qft"
    for kind, T, over in (
        ("qmegs", [], {}),
        ("qmegs", [0], {}),
        ("qft", [6], {}),  # needs 2^n - 1
        ("qft", [7], {"N_t": 2}),
        ("rpe", [8], {"N_t": 4}),  # the ladder ignores N_t
        ("nope", [4], {}),
    ):
        with pytest.raises(ValueError):
            ProtocolSpec(kind, T, **over)
    # a spec is checked again when rebuilt
    with pytest.raises(ValueError):
        replace(direct, N_t=2)


def test_campaign_config_validation():
    assert CampaignConfig.from_dict(_config_dict()).seed == 11
    cases = [
        _config_dict(spectrum="bogus"),
        _config_dict(L=0),
        _config_dict(alphas=[]),
        _config_dict(alphas=[1.5]),
        _config_dict(protocols=[]),
        _config_dict(trials=1),
        _config_dict(target=3),
        # integer fields are never truncated
        _config_dict(protocols=[{"kind": "qmegs", "T": [10.7], "N_t": 50}]),
        _config_dict(protocols=[{"kind": "qmegs", "T": [20], "N_t": 8.9}]),
        _config_dict(protocols=[{"kind": "qmegs", "T": [20], "N_s": 2.5}]),
        _config_dict(protocols=[{"kind": "csqpe", "T": [20], "sparsity": 1.5}]),
        _config_dict(protocols=[{"kind": "qmegs", "T": [20], "N_t": "50"}]),
        _config_dict(protocols=[{"kind": "qmegs", "T": [True], "N_t": 50}]),
        _config_dict(trials=2.5),
        _config_dict(seed=1.5),
        _config_dict(L=3.5),
        _config_dict(target=0.5),
        _config_dict(trials=float("inf")),
        # alphas must be a list of numbers
        _config_dict(alphas=["0.5"]),
        _config_dict(alphas=0.5),
        _config_dict(alphas=[True]),
        _config_dict(alphas=[[0.5]]),
        _config_dict(alphas=[None]),
        _config_dict(alphas=[float("nan")]),
    ]
    for bad in cases:
        with pytest.raises(ValueError):
            CampaignConfig.from_dict(bad)
    cfg = CampaignConfig.from_dict(json.loads(json.dumps(_config_dict())))
    assert cfg.L == 3
    # integral floats are accepted as the integers they spell
    whole = CampaignConfig.from_dict(_config_dict(
        L=3.0, trials=4.0, protocols=[{"kind": "qmegs", "T": [20.0], "N_t": 50.0}],
    ))
    assert (whole.L, whole.trials, whole.protocols[0].T, whole.protocols[0].N_t) == (
        3, 4, [20], 50
    )
    assert all(type(v) is int for v in (whole.L, whole.trials, whole.protocols[0].T[0]))
    # an int past the float range is whole as it stands: no OverflowError
    assert CampaignConfig.from_dict(_config_dict(L=10**400)).L == 10**400


def test_campaign_config_is_checked_when_built_by_any_path():
    # the constructor and dataclasses.replace run the checks from_dict runs
    spec = ProtocolSpec("qmegs", [20], N_t=50, N_s=5)
    args = dict(spectrum="uniform", L=3, alphas=[0.4], protocols=[spec], trials=3, seed=11)
    cfg = CampaignConfig(**args)
    assert cfg == CampaignConfig.from_dict(_config_dict())
    for over in (
        {"trials": 1},
        {"alphas": [1.5]},
        {"seed": -5},
        {"target": 3},
        {"protocols": [{"kind": "qft", "T": [6]}]},
        {"protocols": [{"kind": "qft", "T": [7], "N_t": 2}]},
    ):
        with pytest.raises(ValueError):
            CampaignConfig(**{**args, **over})
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        replace(cfg, seed=-1)
    with pytest.raises(ValueError):
        replace(cfg, protocols=[replace(spec, T=[])])
    # dict entries of protocols become specs; a scalar T becomes a list
    built = CampaignConfig(**{**args, "protocols": [{"kind": "qmegs", "T": 20, "N_t": 50}]})
    assert built.protocols == [ProtocolSpec("qmegs", [20], N_t=50)]


def test_qcels_levels_ladder():
    assert qcels_levels(1024, 500) == [256, 512, 1024]
    assert qcels_levels(100, 5000) == [100]
    levels = qcels_levels(640, 100)
    assert levels[-1] == 640
    assert all(b == 2 * a for a, b in zip(levels, levels[1:]))
    assert levels[0] <= 100


def test_run_campaign_scores_every_point():
    cfg = CampaignConfig.from_dict(_config_dict(alphas=[0.3, 0.6]))
    rows = run_campaign(cfg)
    assert len(rows) == 2
    for row in rows:
        assert row.error == ""
        assert row.mse > 0.0 and np.isfinite(row.mse_se)
        assert row.ratio_r == pytest.approx(
            row.T * row.t_total * row.mse / row.bound, rel=1e-12
        )
        assert row.diag_ratio >= 1.0
        assert row.trials == 3


def test_run_campaign_accounts_rpe_without_an_estimator():
    # an RPE row carries its floor T t_total / I_ii; no estimator scores it
    cfg = CampaignConfig.from_dict(
        _config_dict(protocols=[{"kind": "rpe", "T": [8], "N_s": 2}])
    )
    (row,) = run_campaign(cfg)
    F = total_fim(make_spectrum("uniform", 3, 0.4), "rpe", 8, 1, 2)
    assert row.t_total == t_total("rpe", 8, 1, 2)
    assert row.bound == 8.0 * row.t_total / F.theta_theta[F.index_of(0), F.index_of(0)]
    assert row.diag_ratio >= 1.0 and np.isfinite(row.f0_max)
    assert row.error == "ValueError: rpe has no estimator"
    assert np.isnan(row.mse) and np.isnan(row.ratio_r)


def test_failed_grid_point_does_not_poison_others():
    # two shots cannot clear the 3/N_s peak threshold, so the readout
    # point fails while the Hadamard-test point still produces numbers
    cfg = CampaignConfig.from_dict(
        _config_dict(
            protocols=[
                {"kind": "qft", "T": [15], "N_s": 2},
                {"kind": "qmegs", "T": [20], "N_t": 50, "N_s": 5},
            ]
        )
    )
    rows = run_campaign(cfg)
    assert "NoPeaksDetected" in rows[0].error
    assert np.isnan(rows[0].mse)
    assert rows[1].error == "" and rows[1].mse > 0.0


def test_sweep_bounds_finds_crossover():
    cfg = CampaignConfig.from_dict(
        _config_dict(
            L=20,
            alphas=[0.1, 0.3, 0.5, 0.7, 0.9],
            protocols=[
                {"kind": "qmegs", "T": [200], "N_t": 20},
                {"kind": "qft", "T": [255]},
            ],
        )
    )
    rows, crossover = sweep_bounds(cfg)
    assert len(rows) == 10
    assert all(row.error == "" for row in rows)
    assert crossover is not None and 0.0 < crossover < 1.0
    # small alpha concentrates c0 near 1 (Hadamard tests win); large
    # alpha spreads the overlap thin (readout wins)
    by_alpha = {}
    for row in rows:
        by_alpha.setdefault(row.alpha, {})[row.protocol] = row.bound
    assert by_alpha[0.1]["qft"] > by_alpha[0.1]["qmegs"]
    assert by_alpha[0.9]["qft"] < by_alpha[0.9]["qmegs"]


def test_sweep_bounds_without_readout_has_no_crossover():
    cfg = CampaignConfig.from_dict(_config_dict(alphas=[0.2, 0.8]))
    rows, crossover = sweep_bounds(cfg)
    assert crossover is None
    assert len(rows) == 2


def test_check_diag_and_gi_sweep_rows():
    cfg = CampaignConfig.from_dict(
        _config_dict(protocols=[{"kind": "csqpe", "T": [10, 20], "N_t": 8}])
    )
    diag = check_diag(cfg)
    assert [row.T for row in diag] == [10.0, 20.0]
    assert all(row.diag_ratio >= 1.0 for row in diag)
    gi = gi_sweep(cfg)
    s = make_spectrum("uniform", 3, 0.4)
    F = total_fim(s, "csqpe", 10, 8, 1)
    want = F.theta_theta[F.index_of(0), F.index_of(0)] / (8 * 1 * 100.0)
    assert gi[0].g0 == pytest.approx(want, rel=1e-12)


def test_only_the_diag_ratio_tables_build_the_full_matrix(monkeypatch):
    # bounds and gi read I_ii alone and ask for the theta-theta block;
    # diag and bench read diag_ratio, whose inverse entry needs the c rows
    path = Path(__file__).resolve().parents[1] / "demos" / "bench_config.json"
    cfg = replace(CampaignConfig.from_dict(json.loads(path.read_text())), trials=2)
    build, asked = bench_module.total_fims, []

    def spy(*args, overlaps_known=False):
        asked.append(overlaps_known)
        return build(*args, overlaps_known=overlaps_known)

    monkeypatch.setattr(bench_module, "total_fims", spy)
    tables = {"bounds": lambda c: sweep_bounds(c)[0], "gi": gi_sweep}
    rows = {}
    for name, run, known in (
        *((name, run, True) for name, run in tables.items()),
        ("diag", check_diag, False),
        ("bench", run_campaign, False),
    ):
        asked.clear()
        rows[name] = run(cfg)
        assert asked and set(asked) == {known}, name
        assert not any(row.error for row in rows[name]), name
    # bounds and gi forced onto the full path
    monkeypatch.setattr(bench_module, "total_fims", lambda *args, overlaps_known: build(*args))
    for name, run in tables.items():
        want = run(cfg)
        assert len(want) == len(rows[name])
        for got, full in zip(rows[name], want):
            assert (got.alpha, got.protocol, got.T) == (full.alpha, full.protocol, full.T)
            assert got.g0 == pytest.approx(full.g0, rel=1e-13)
            assert got.bound == pytest.approx(full.bound, rel=1e-13)


def test_table_rows_match_the_bound_functions():
    # gi and bounds rows equal g_i / cost_product_bound wherever both
    # describe the same campaign; for QCELS the rows pass the doubling
    # ladder the estimator samples as horizons, not one arithmetic level
    protocols = [
        {"kind": "qmegs", "T": [60], "N_t": 20, "N_s": 3},
        {"kind": "csqpe", "T": [60], "N_t": 20, "N_s": 3},
        {"kind": "qft", "T": [63], "N_s": 3},
        {"kind": "qcels", "T": [64], "N_t": 10, "N_s": 3},
    ]
    cfg = CampaignConfig.from_dict(_config_dict(L=5, protocols=protocols))
    gi = gi_sweep(cfg)
    bounds, _ = sweep_bounds(cfg)
    s = make_spectrum("uniform", 5, 0.4)
    for spec, gi_row, bound_row in zip(cfg.protocols, gi, bounds):
        assert gi_row.error == "" and bound_row.error == ""
        kind, T, N_t, N_s = spec.kind, spec.T[0], spec.N_t, spec.N_s
        if kind.value == "qcels":
            levels = qcels_levels(T, N_t)
            assert len(levels) > 1
            want = np.mean([g_i(s, kind, h, N_t, N_s) * (h / T) ** 2 for h in levels])
            assert gi_row.g0 == pytest.approx(want, rel=1e-12)
            assert bound_row.g0 == gi_row.g0
            assert bound_row.t_total == sum(t_total(kind, h, N_t, N_s) for h in levels)
            continue
        assert gi_row.g0 == bound_row.g0 == g_i(s, kind, T, N_t, N_s)
        assert bound_row.bound == cost_product_bound(s, kind, T, N_t, N_s)
        want_gamma = 1.0 if kind.value == "qft" else gamma(kind, T, N_t)
        assert bound_row.gamma == want_gamma
        assert bound_row.t_total == t_total(kind, T, N_t, N_s)


def test_accounting_sums_blocks_and_costs_over_the_horizons():
    s = make_spectrum("uniform", 4, 0.4)
    levels = qcels_levels(50, 8)
    assert levels == [6.25, 12.5, 25.0, 50.0]  # fractional QCELS horizons stay valid
    g0, gam, bound, ttl, fim = accounting(s, "qcels", levels, 8, 2)
    parts = [total_fim(s, "qcels", h, 8, 2) for h in levels]
    assert np.array_equal(fim.full(), sum(parts[1:], parts[0]).full())
    assert ttl == sum(t_total("qcels", h, 8, 2) for h in levels)
    N = len(levels) * 8 * 2
    info = fim.theta_theta[fim.index_of(0), fim.index_of(0)]
    assert gam == ttl / (N * 50.0)
    assert g0 == info / (N * 50.0**2)
    assert bound == 50.0 * ttl / info
    assert bound == pytest.approx(gam / g0, rel=1e-15)
    # one horizon is the library pair
    one = accounting(s, "qcels", [50], 8, 2)
    assert one[0] == g_i(s, "qcels", 50, 8, 2)
    assert one[1] == pytest.approx(gamma("qcels", 50, 8), rel=1e-15)
    assert one[2] == cost_product_bound(s, "qcels", 50, 8, 2)
    # the same floor holds for RPE, which has no linear cost form
    g0, gam, bound, ttl, fim = accounting(s, "rpe", [8], 1, 2)
    info = fim.theta_theta[fim.index_of(0), fim.index_of(0)]
    assert ttl == t_total("rpe", 8, 1, 2)
    assert (g0, gam, bound) == (info / (2 * 64.0), ttl / (2 * 8.0), 8.0 * ttl / info)
    with pytest.raises(ValueError, match="N_t = 1"):
        accounting(s, "rpe", [8], 4, 2)  # the ladder ignores N_t, N would not


def test_failed_accounting_lands_in_the_row():
    # a head-dense spectrum needs two modes, so every point of every table
    # fails, row by row
    cfg = CampaignConfig.from_dict(_config_dict(spectrum="head_dense", L=1, alphas=[0.3, 0.6]))
    for rows in (gi_sweep(cfg), sweep_bounds(cfg)[0], check_diag(cfg), run_campaign(cfg)):
        assert len(rows) == 2
        assert all(
            row.error == "ValueError: head- and tail-dense spectra need at least two modes"
            and np.isnan(row.g0)
            for row in rows
        )


def test_a_row_whose_target_overlap_underflows_fails_alone(tmp_path, capsys):
    # alpha 1e-300 puts c_2 = 1e-600, which underflows to 0, so every
    # protocol's I_22 is 0 there; the alpha 0.5 rows built in the same
    # stacks must keep the bytes they have alone
    protocols = [
        {"kind": "qmegs", "T": [40], "N_t": 10, "N_s": 2},
        {"kind": "csqpe", "T": [30], "N_t": 10, "N_s": 2},
        {"kind": "qcels", "T": [32], "N_t": 8, "N_s": 2},
        {"kind": "rpe", "T": [16], "N_s": 2},
        {"kind": "qft", "T": [63], "N_s": 500},
    ]
    base = _config_dict(L=4, target=2, trials=2, protocols=protocols)
    both = _write_config(tmp_path, {**base, "alphas": [1e-300, 0.5]}, "both.json")
    alone = _write_config(tmp_path, {**base, "alphas": [0.5]}, "alone.json")
    for sub in ("bounds", "diag", "gi", "bench"):
        paths = [str(tmp_path / f"{sub}_{name}.csv") for name in ("both", "alone")]
        assert main([sub, "--config", both, "--out", paths[0]]) == 2
        main([sub, "--config", alone, "--out", paths[1]])
        got, want = (Path(p).read_text().splitlines() for p in paths)
        failed, kept = got[2 : 2 + len(protocols)], got[2 + len(protocols) :]
        singular = ",SingularFim: diagonal Fisher entry is not positive"
        assert all(r.endswith(singular) for r in failed)
        if sub != "bench":  # bench seeds its trials by grid index, which the first alpha moves
            assert got[:2] + kept == want
        else:
            got, alone_rows = _read_rows(paths[0])[len(protocols) :], _read_rows(paths[1])
            accounted = ("c0", "g0", "gamma", "bound", "t_total", "f0_max", "diag_ratio")
            assert [[r[k] for k in accounted] for r in got] == [
                [r[k] for k in accounted] for r in alone_rows
            ]
    capsys.readouterr()


def test_write_rows_csv_format(tmp_path):
    cfg = CampaignConfig.from_dict(_config_dict())
    rows, _ = sweep_bounds(cfg)
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path, cfg.seed)
    text = path.read_text()
    assert text.startswith(f"# qpe-bounds v{__version__} seed=11\n")
    assert "np.float64" not in text
    records = _read_rows(path)
    assert float(records[0]["bound"]) == rows[0].bound  # repr round-trips
    with pytest.raises(ValueError):
        write_rows_csv([], path, 0)


def test_emit_samples_file_naming(tmp_path):
    cfg = CampaignConfig.from_dict(
        _config_dict(
            trials=2,
            protocols=[
                {"kind": "qmegs", "T": [10, 20], "N_t": 5, "N_s": 2},
            ],
        )
    )
    paths = emit_samples(cfg, str(tmp_path / "raw.csv"))
    assert [p.split("/")[-1] for p in paths] == [
        "raw_qmegs_a0.4_T10.csv",
        "raw_qmegs_a0.4_T20.csv",
    ]
    single = CampaignConfig.from_dict(_config_dict(trials=2))
    out = emit_samples(single, str(tmp_path / "only.csv"))
    assert out == [str(tmp_path / "only.csv")]


@pytest.mark.parametrize("over", [
    {"protocols": [{"kind": "qmegs", "T": [100], "N_t": 5},
                   {"kind": "qmegs", "T": [100], "N_t": 7}]},
    {"alphas": [0.4, 0.4]},
])
def test_sample_files_that_would_clash_are_a_config_error(tmp_path, capsys, over):
    # two points with the same (kind, alpha, T) would write one file name;
    # the second would overwrite the first, so nothing is written
    cfg = _write_config(tmp_path, _config_dict(trials=2, **over))
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "raw.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: grid points with the same (kind, alpha, T)")
    assert str(tmp_path / "raw_qmegs_a0.4_T") in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_emit_samples_writes_the_draws_bench_estimates(tmp_path, monkeypatch):
    cfg = CampaignConfig.from_dict(
        _config_dict(
            trials=3,
            protocols=[
                {"kind": "qmegs", "T": [20], "N_t": 50, "N_s": 5},
                {"kind": "qft", "T": [63], "N_s": 2000},
                {"kind": "qcels", "T": [32], "N_t": 4, "N_s": 5},
            ],
        )
    )
    ht_path, qft_path, qcels_path = emit_samples(cfg, str(tmp_path / "raw.csv"))
    s = make_spectrum(cfg.spectrum, cfg.L, cfg.alphas[0])
    estimates = [
        [estimate_qmegs(d, 20).theta_hat for d in read_ht_csv(ht_path)],
        [estimate_curvefit_qft(d).theta_hat for d in read_qft_csv(qft_path, 6)],
    ]
    for idx, (pspec, got) in enumerate(zip(cfg.protocols, estimates)):
        want = [
            _one_trial(s, pspec, pspec.T[0], cfg.seed, idx, k) for k in range(cfg.trials)
        ]
        assert got == want, pspec.kind
    # a QCELS trial estimates from its whole ladder; the file holds the
    # level at T, the last dataset the estimator receives
    seen = []

    def capture(datasets):
        seen.append(datasets)
        return types.SimpleNamespace(theta_hat=0.0)

    monkeypatch.setattr(bench_module, "estimate_qcels_ml", capture)
    pspec = cfg.protocols[2]
    for k in range(cfg.trials):
        _one_trial(s, pspec, 32, cfg.seed, 2, k)
    assert all(len(datasets) > 1 for datasets in seen)
    for datasets, got in zip(seen, read_ht_csv(qcels_path), strict=True):
        want = datasets[-1]
        assert want.times[-1] == 32.0 and got.N_s == want.N_s
        for name in ("times", "n_re0", "n_re1", "n_im0", "n_im1"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_bounds_success(tmp_path, capsys):
    cfg = _write_config(tmp_path, _config_dict(
        L=20,
        alphas=[0.2, 0.8],
        protocols=[
            {"kind": "qmegs", "T": [100], "N_t": 10},
            {"kind": "qft", "T": [127]},
        ],
    ))
    out = str(tmp_path / "bounds.csv")
    code = main(["bounds", "--config", cfg, "--out", out])
    captured = capsys.readouterr()
    assert code == 0
    assert "crossover c0 =" in captured.out
    assert out in captured.out
    assert (tmp_path / "bounds.csv").exists()


def test_cli_config_errors(tmp_path, capsys):
    missing = main(["diag", "--config", str(tmp_path / "nope.json")])
    assert missing == 1
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["diag", "--config", str(bad_json)]) == 1
    bad_family = _write_config(tmp_path, _config_dict(spectrum="bogus"))
    assert main(["gi", "--config", bad_family]) == 1
    bad_T = _write_config(
        tmp_path, _config_dict(protocols=[{"kind": "qft", "T": [6]}])
    )
    assert main(["bounds", "--config", bad_T]) == 1
    # a register too wide to walk is refused before anything is allocated
    too_wide = _write_config(
        tmp_path, _config_dict(protocols=[{"kind": "qft", "T": [2**27 - 1]}])
    )
    assert main(["bounds", "--config", too_wide]) == 1
    good = _write_config(tmp_path, _config_dict())
    out = str(tmp_path / "out.csv")
    for threads in ("0", "-5"):
        assert main(["bench", "--config", good, "--threads", threads, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("config error:") == 7
    assert err.count("threads must be at least 1") == 2
    # usage errors are configuration errors too: 2 means failed grid points
    for argv in (
        ["bench", "--config", good, "--seed", "abc", "--out", out],
        ["bench", "--out", out],
        ["bench", "--config", good, "--threads", "x", "--out", out],
        ["nope", "--config", good, "--out", out],
        [],
    ):
        assert main(argv) == 1
    assert capsys.readouterr().err.count("usage:") == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "cfg.json"]


@pytest.mark.parametrize("command", ["gi", "sample"])
def test_cli_unwritable_out_is_an_output_error(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, _config_dict())
    out = str(tmp_path / "missing" / "x.csv")
    assert main([command, "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error:") and "Traceback" not in err


def test_cli_rpe_policy_across_subcommands(tmp_path, capsys):
    # every table bounds RPE; bench accounts it but has no estimator to
    # score, and an N_t other than 1 is refused everywhere
    cfg = _write_config(tmp_path, _config_dict(
        protocols=[{"kind": "rpe", "T": [8, 16], "N_s": 2}],
    ))
    # bounds keeps each protocol's largest T
    columns = {"bounds": ("bound", 1), "diag": ("diag_ratio", 2), "gi": ("g0", 2)}
    for sub, (column, count) in columns.items():
        out = tmp_path / f"{sub}.csv"
        assert main([sub, "--config", cfg, "--out", str(out)]) == 0
        rows = _read_rows(out)
        assert len(rows) == count
        assert all(row["error"] == "" and np.isfinite(float(row[column])) for row in rows)
    out = tmp_path / "bench.csv"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
    rows = _read_rows(out)
    assert len(rows) == 2
    for row in rows:
        assert row["error"] == "ValueError: rpe has no estimator"
        assert all(np.isfinite(float(row[c])) for c in ("g0", "gamma", "bound", "t_total"))
    out = tmp_path / "raw.csv"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    assert len(capsys.readouterr().out.split()) == 6  # four tables and two sample files
    bad = _write_config(tmp_path, _config_dict(
        protocols=[{"kind": "rpe", "T": [8], "N_t": 4}],
    ), "bad.json")
    for sub in ("bounds", "diag", "gi", "bench", "sample"):
        assert main([sub, "--config", bad, "--out", str(tmp_path / "bad.csv")]) == 1
    assert not (tmp_path / "bad.csv").exists()
    assert capsys.readouterr().err.count("config error: rpe uses N_t = 1") == 5


def test_cli_refuses_negative_seed(tmp_path, capsys):
    # SeedSequence takes no negative entropy: refuse the config up front
    # instead of writing an error row for every point
    good = _write_config(tmp_path, _config_dict(), "good.json")
    bad = _write_config(tmp_path, _config_dict(seed=-1), "bad.json")
    for sub in ("bench", "sample", "bounds"):
        for argv in (["--config", bad], ["--config", good, "--seed", "-3"]):
            out = tmp_path / f"{sub}.csv"
            assert main([sub, *argv, "--out", str(out)]) == 1
            assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "good.json"]
    assert capsys.readouterr().err.count("config error: seed must be nonnegative") == 6


def test_cli_table_headers(tmp_path):
    cfg = _write_config(tmp_path, _config_dict(
        protocols=[{"kind": "csqpe", "T": [10], "N_t": 8}], trials=2,
    ))
    headers = {
        "bounds": "spectrum,L,alpha,c0,protocol,T,N_t,g0,gamma,bound,error",
        "diag": "spectrum,L,alpha,protocol,T,N_t,diag_ratio,error",
        "gi": "spectrum,L,alpha,c0,protocol,T,N_t,g0,error",
        "bench": "spectrum,L,alpha,protocol,T,N_t,N_s,trials,c0,g0,gamma,bound,"
                 "t_total,f0_max,diag_ratio,mse,mse_se,ratio_r,error",
    }
    for sub, header in headers.items():
        out = tmp_path / f"{sub}.csv"
        assert main([sub, "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == f"# qpe-bounds v{__version__} seed=11"
        assert lines[1] == header
        assert len(lines) == 3 and lines[2].count(",") == header.count(",")


def test_cli_bench_partial_failure_exits_two(tmp_path):
    cfg = _write_config(tmp_path, _config_dict(
        protocols=[
            {"kind": "qft", "T": [15], "N_s": 2},
            {"kind": "qmegs", "T": [20], "N_t": 50, "N_s": 5},
        ],
    ))
    out = str(tmp_path / "bench.csv")
    assert main(["bench", "--config", cfg, "--out", out]) == 2
    text = (tmp_path / "bench.csv").read_text()
    assert "NoPeaksDetected" in text


def test_cli_target_with_no_information_is_a_singular_fim_row(tmp_path):
    # the odd-L uniform family puts mode (L - 1) / 2 at phase 0.0, bin 0 of
    # every register: there every d p(y) / d theta_1 vanishes, so I_11 = 0
    # and the register rows have no floor.  The Hadamard-test rows keep theirs
    cfg = _write_config(tmp_path, _config_dict(
        L=3, alphas=[0.5], target=1, trials=2,
        protocols=[
            {"kind": "qft", "T": [7, 255]},
            {"kind": "qmegs", "T": [50], "N_t": 10},
            {"kind": "csqpe", "T": [50], "N_t": 10},
        ],
    ))
    s = make_spectrum("uniform", 3, 0.5)
    for sub in ("bounds", "gi", "diag", "bench"):
        out = tmp_path / f"{sub}.csv"
        assert main([sub, "--config", cfg, "--out", str(out)]) == 2
        rows = _read_rows(out)
        kinds = [row["protocol"] for row in rows]
        assert kinds == ["qft"] * (1 if sub == "bounds" else 2) + ["qmegs", "csqpe"]
        for row in rows:
            if row["protocol"] == "qft":
                assert row["error"] == "SingularFim: diagonal Fisher entry is not positive"
            else:
                assert row["error"] == ""
                if "g0" in row:
                    want = g_i(s, row["protocol"], 50, 10, 1, label=1)
                    assert float(row["g0"]) == want


def test_cli_bench_register_too_wide_to_fit_is_a_row_error(tmp_path, monkeypatch):
    # the fit's width cap, lowered from n = 22 to 4 so that T = 31 (n = 5)
    # crosses it: the row carries the error and bench exits 2
    monkeypatch.setattr(estimators_module, "_FIT_MAX_N", 4)
    cfg = _write_config(tmp_path, _config_dict(
        protocols=[{"kind": "qft", "T": [31], "N_s": 50}], trials=2,
    ))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
    (row,) = _read_rows(out)
    assert row["error"] == "ValueError: the histogram fit takes registers of n <= 4"
    assert np.isfinite(float(row["bound"]))


def test_sizes_past_the_machine_are_a_row_error_or_a_config_error(tmp_path, capsys):
    # 1e17 float64 values ask for 8e17 bytes: past any address space and
    # below numpy's size limit, so the allocation fails at once
    cfg = _write_config(tmp_path, _config_dict(
        protocols=[{"kind": "csqpe", "T": [1e17], "N_t": 5}],
    ), "gi.json")
    out = tmp_path / "gi.csv"
    assert main(["gi", "--config", cfg, "--out", str(out)]) == 2
    (row,) = _read_rows(out)
    assert "MemoryError: Unable to allocate" in row["error"]
    assert row["error"].endswith("data type float64")  # the quoted comma stays in the field
    cfg = _write_config(tmp_path, _config_dict(
        protocols=[{"kind": "qcels", "T": [16], "N_t": 1e17}],
    ), "sample.json")
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "raw.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: Unable to allocate") and "Traceback" not in err
    # a shot count past a C long is a config error too
    cfg = _write_config(tmp_path, _config_dict(
        protocols=[{"kind": "qmegs", "T": [20], "N_t": 5, "N_s": 1e19}],
    ), "shots.json")
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "raw.csv")]) == 1
    assert capsys.readouterr().err.startswith("config error: Python int too large")


def test_cli_bench_reproducibility_and_seed_override(tmp_path):
    cfg = _write_config(tmp_path, _config_dict(trials=2))
    a, b, c = (str(tmp_path / name) for name in ("a.csv", "b.csv", "c.csv"))
    assert main(["bench", "--config", cfg, "--out", a]) == 0
    assert main(["bench", "--config", cfg, "--out", b]) == 0
    assert main(["bench", "--config", cfg, "--out", c, "--seed", "99"]) == 0
    bytes_a = (tmp_path / "a.csv").read_bytes()
    assert bytes_a == (tmp_path / "b.csv").read_bytes()
    assert bytes_a != (tmp_path / "c.csv").read_bytes()
    assert b"seed=99" in (tmp_path / "c.csv").read_bytes()


def test_cli_bench_threads_flag_leaves_the_csv_unchanged(tmp_path):
    # trials always run serially; --threads is only validated
    cfg = _write_config(tmp_path, _config_dict(
        protocols=[
            {"kind": "qmegs", "T": [20], "N_t": 50, "N_s": 5},
            {"kind": "qcels", "T": [16], "N_t": 4, "N_s": 5},
        ],
    ))
    for threads in ("1", "2"):
        out = str(tmp_path / f"t{threads}.csv")
        assert main(["bench", "--config", cfg, "--out", out, "--threads", threads]) == 0
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_command_parses_and_loads(tmp_path):
    # the benchmark hands these argument lists to cli.main; a change to
    # the CLI or the config schema must not leave them behind
    workloads = _benchmark_workloads()
    commands = [c for w in workloads.WORKLOADS.values() for c in w["commands"]]
    assert commands
    for command in commands:
        cfg = _write_config(tmp_path, command["config"], f"{command['name']}.json")
        argv = workloads.argv(command, cfg, str(tmp_path / "out.csv"), 42)
        args = _build_parser().parse_args(argv)
        assert args.command == command["subcommand"]
        config = _load_config(args)
        assert config == CampaignConfig.from_dict({**command["config"], "seed": 42})


def test_cli_sample_lists_written_files(tmp_path, capsys):
    cfg = _write_config(tmp_path, _config_dict(trials=2))
    out = str(tmp_path / "raw.csv")
    assert main(["sample", "--config", cfg, "--out", out]) == 0
    assert capsys.readouterr().out.strip() == out


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
    for argv in (["--help"], ["bench", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out
