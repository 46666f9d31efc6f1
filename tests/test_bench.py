"""Campaign driver, CSV output and the command-line front end."""

import csv
import json

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
from qpe_bounds.bench import (
    _one_trial,
    accounting,
    emit_samples,
    qcels_levels,
    write_rows_csv,
)
from qpe_bounds.cli import main
from qpe_bounds.errors import NoLinearCostForm


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
    spec = ProtocolSpec.from_dict({"kind": "qcels", "T": 16, "N_t": 4})
    assert spec.T == [16] and spec.N_s == 1
    direct = ProtocolSpec("qft", [7])
    assert direct.kind.value == "qft"
    with pytest.raises(ValueError):
        ProtocolSpec.from_dict({"kind": "qmegs", "T": []})
    with pytest.raises(ValueError):
        ProtocolSpec.from_dict({"kind": "qmegs", "T": [0]})
    with pytest.raises(ValueError):
        ProtocolSpec.from_dict({"kind": "qft", "T": [6]})  # needs 2^n - 1
    with pytest.raises(ValueError):
        ProtocolSpec.from_dict({"kind": "qft", "T": [7], "N_t": 2})
    with pytest.raises(ValueError):
        ProtocolSpec.from_dict({"kind": "nope", "T": [4]})


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
    cfg = CampaignConfig.from_json(json.dumps(_config_dict()))
    assert cfg.L == 3
    # integral floats are accepted as the integers they spell
    whole = CampaignConfig.from_dict(_config_dict(
        L=3.0, trials=4.0, protocols=[{"kind": "qmegs", "T": [20.0], "N_t": 50.0}],
    ))
    assert (whole.L, whole.trials, whole.protocols[0].T, whole.protocols[0].N_t) == (
        3, 4, [20], 50
    )
    assert all(type(v) is int for v in (whole.L, whole.trials, whole.protocols[0].T[0]))


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


def test_run_campaign_threads_match_serial():
    cfg = CampaignConfig.from_dict(_config_dict())
    serial = run_campaign(cfg, threads=1)
    parallel = run_campaign(cfg, threads=4)
    assert [r.mse for r in serial] == [r.mse for r in parallel]


def test_run_campaign_rejects_rpe():
    cfg = CampaignConfig.from_dict(
        _config_dict(protocols=[{"kind": "rpe", "T": [8], "N_t": 4}])
    )
    with pytest.raises(ValueError):
        run_campaign(cfg)


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
    assert gam == ttl / (N * 50.0)
    assert g0 == fim.theta_theta[fim.index_of(0), fim.index_of(0)] / (N * 50.0**2)
    assert bound == gam / g0
    # one horizon is the library pair, with the closed-form gamma
    one = accounting(s, "qcels", [50], 8, 2)
    assert one[:3] == (
        g_i(s, "qcels", 50, 8, 2),
        gamma("qcels", 50, 8),
        cost_product_bound(s, "qcels", 50, 8, 2),
    )
    with pytest.raises(NoLinearCostForm):
        accounting(s, "rpe", [4, 8], 1, 1)


def test_failed_accounting_lands_in_the_row():
    # a label no mode carries fails every point of every table, row by row
    cfg = CampaignConfig.from_dict(_config_dict(alphas=[0.3, 0.6]))
    cfg.target = 0.5
    for rows in (gi_sweep(cfg), sweep_bounds(cfg)[0], check_diag(cfg), run_campaign(cfg)):
        assert len(rows) == 2
        assert all("KeyError" in row.error and np.isnan(row.g0) for row in rows)


def test_write_rows_csv_format(tmp_path):
    cfg = CampaignConfig.from_dict(_config_dict())
    rows, _ = sweep_bounds(cfg)
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path, cfg.seed)
    text = path.read_text()
    assert text.startswith(f"# qpe-bounds v{__version__} seed=11\n")
    assert "np.float64" not in text
    with open(path) as fh:
        records = list(csv.DictReader(l for l in fh if not l.startswith("#")))
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


def test_emit_samples_writes_the_draws_bench_estimates(tmp_path):
    cfg = CampaignConfig.from_dict(
        _config_dict(
            trials=3,
            protocols=[
                {"kind": "qmegs", "T": [20], "N_t": 50, "N_s": 5},
                {"kind": "qft", "T": [63], "N_s": 2000},
            ],
        )
    )
    ht_path, qft_path = emit_samples(cfg, str(tmp_path / "raw.csv"))
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
    err = capsys.readouterr().err
    assert err.count("config error:") == 4


def test_cli_rpe_policy_across_subcommands(tmp_path, capsys):
    # RPE has no linear cost form: every table refuses it up front, while
    # raw samples of its geometric ladder can still be written
    cfg = _write_config(tmp_path, _config_dict(
        protocols=[{"kind": "rpe", "T": [8], "N_s": 2}],
    ))
    for sub in ("bounds", "diag", "gi", "bench"):
        out = tmp_path / f"{sub}.csv"
        assert main([sub, "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()
    assert capsys.readouterr().err.count("rpe_fim_bounds") == 4
    out = tmp_path / "raw.csv"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    assert out.exists()


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
