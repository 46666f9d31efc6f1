"""Self-tests of the benchmark: span arithmetic, the gate, the metric names.

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _span(id, name, start, end, parent=None, thread=1, tag=None):
    s = tracing.Span(id, name, tag, parent, thread, 1)
    s.start, s.end = start, end
    return s


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        # children overlap (two threads) and one runs past the parent's end
        _span(1, "fim.total_fim", 1.0, 3.0, parent=0, thread=1),
        _span(2, "fim.total_fim", 2.0, 5.0, parent=0, thread=2),
        _span(3, "bounds.diag_ratio", 8.0, 12.0, parent=0),
        # a grandchild is covered by its parent, not by the root
        _span(4, "dirichlet.dirichlet", 1.5, 2.5, parent=1),
    ]
    selfs, _ = tracing.self_times(spans)
    assert selfs[0] == 10.0 - (4.0 + 2.0)
    assert selfs[1] == 2.0 - 1.0
    assert selfs[2] == 3.0
    assert selfs[4] == 1.0


def test_covered_merges_and_clips():
    assert tracing.covered([], 0.0, 1.0) == 0.0
    assert tracing.covered([(0.5, 2.0), (-1.0, 0.25), (0.6, 0.7)], 0.0, 1.0) == 0.75


def test_pool_utilisation_counts_busy_threads_over_trial_wall():
    spans = [
        _span(0, "bench.run_campaign", 0.0, 10.0, tag=2),
        _span(1, "fim.total_fim", 0.0, 2.0, parent=0),
        _span(2, "estimators.estimate_curvefit_qft", 2.0, 6.0, parent=0, thread=7),
        _span(3, "estimators.estimate_curvefit_qft", 2.0, 4.0, parent=0, thread=8),
        _span(4, "estimators.estimate_curvefit_qft", 4.0, 6.0, parent=0, thread=8),
    ]
    _, children = tracing.self_times(spans)
    assert tracing.pool_utilisation(spans, children) == 1.0
    spans[4].end = 5.0  # one worker idles for the last second of four
    assert tracing.pool_utilisation(spans, children) == 7.0 / 8.0


def test_threaded_spans_link_to_the_root_thread_and_restore_on_uninstall():
    mod = types.ModuleType("perfbench_fake_layers")

    def leaf(spectrum, x):
        time.sleep(0.02)
        return x

    def root(argv=None):
        with ThreadPoolExecutor(2) as pool:
            return list(pool.map(lambda k: mod.dirichlet(None, [k]), range(4)))

    mod.dirichlet, mod.main = leaf, root
    sys.modules[mod.__name__] = mod
    try:
        tracer = tracing.Tracer()
        tracer.wrap(mod.__name__, "main", "cli.main")
        tracer.wrap(mod.__name__, "dirichlet", "dirichlet.dirichlet", tracing._evals("fim"))
        assert mod.main() == [[0], [1], [2], [3]]
        tracer.uninstall()
        assert mod.dirichlet is leaf and mod.main is root
    finally:
        del sys.modules[mod.__name__]
    top, *leaves = tracer.spans
    assert top.parent is None and len(leaves) == 4
    assert {s.parent for s in leaves} == {top.id}
    assert {s.command for s in tracer.spans} == {top.command}
    assert all(s.thread != top.thread for s in leaves)
    assert len({s.thread for s in leaves}) <= 2
    selfs, _ = tracing.self_times(tracer.spans)
    busy = tracing.covered([(s.start, s.end) for s in leaves], top.start, top.end)
    assert abs(selfs[top.id] - ((top.end - top.start) - busy)) < 1e-12
    assert selfs[top.id] < 0.02
    m = tracing.layer_metrics(tracer)
    assert m["dirichlet.dirichlet.evals"] == m["dirichlet.evals.fim"] == 4
    assert m["trace.spans"] == 5
    assert abs(m["share.dirichlet"] + m["share.cli"] - 1.0) < 1e-12


def test_failed_calls_are_counted():
    mod = types.ModuleType("perfbench_fake_failing")

    def boom(data):
        raise ValueError("no peaks")

    mod.estimate_qmegs = boom
    sys.modules[mod.__name__] = mod
    try:
        tracer = tracing.Tracer()
        tracer.wrap(mod.__name__, "estimate_qmegs", "estimators.estimate_qmegs")
        tracer.wrap(mod.__name__, "estimate_qmegs", "estimators.nnls", span=False)
        for _ in range(2):
            try:
                mod.estimate_qmegs(None)
            except ValueError:
                pass
        tracer.uninstall()
    finally:
        del sys.modules[mod.__name__]
    m = tracing.layer_metrics(tracer)
    assert m["estimators.estimate_qmegs.calls"] == 2
    assert m["estimators.estimate_qmegs.failed"] == 2
    assert m["estimators.nnls.calls"] == 2


def test_p90_needs_100_calls_pooled_over_repetitions():
    ms = {e: [] for e in tracing.ESTIMATORS}
    ms["estimate_qmegs"] = [float(i) for i in range(1, 51)]
    assert tracing.percentiles(ms)["estimators.estimate_qmegs.p90_ms"] == 0.0
    ms["estimate_qmegs"] += [float(i) for i in range(51, 101)]
    m = tracing.percentiles(ms)
    assert m["estimators.estimate_qmegs.p50_ms"] == 50.5
    assert m["estimators.estimate_qmegs.p90_ms"] == pytest.approx(90.1)
    assert m["estimators.estimate_csqpe.p50_ms"] == 0.0
    assert "estimators.estimate_curvefit_qft.p90_ms" not in m


def test_times_are_scaled_by_the_kernel_times_around_them():
    ref = hostspeed.REFERENCE_S
    # the host runs at reference speed, then slows to a third of it
    assert hostspeed.scaled([1.0, 3.0], [ref, ref, 5.0 * ref]) == pytest.approx([1.0, 1.0])
    with pytest.raises(ValueError):
        hostspeed.scaled([1.0, 3.0], [ref, ref])


def test_only_serial_workloads_scale_their_repetitions():
    # the host runs at half the reference speed throughout
    slow = 2.0 * hostspeed.REFERENCE_S
    for workload, wall in (("campaign_ht", 2.0), ("campaign_qft", 4.0)):
        name = run.WORKLOADS[workload]["commands"][0]["name"]
        rep = {"wall_s": 4.0, "cpu_s": 4.0, "outputs": {name: {"rows": 1}}}
        record = {"setup_s": [1.0] * 3, "kernel_s": [slow] * 3, "reps": [rep] * 2,
                  "peak_rss_mb": 100.0}
        metrics, _ = run._end_to_end(types.SimpleNamespace(workload=workload), record)
        assert metrics["setup_s"] == pytest.approx(0.5)
        assert metrics["wall_s"] == pytest.approx(wall)
        assert metrics["cpu_s"] == pytest.approx(wall)
        assert run._end_to_end(types.SimpleNamespace(workload=workload), record,
                               at_reference_speed=False)[0]["wall_s"] == 4.0


def _reference(workload, name):
    return gate.read_csv(os.path.join(HERE, "reference", workload, name + ".csv"))[1]


def test_gate_accepts_the_references():
    for workload, spec in run.WORKLOADS.items():
        for c in spec["commands"]:
            rows = _reference(workload, c["name"])
            assert gate.compare(c["name"], rows, rows) == []
            if c["subcommand"] == "bench":
                assert gate.check_bands(c["name"], rows) == []


def test_gate_rejects_a_perturbed_bound():
    ref = _reference("accounting_sweep", "bounds_uniform")
    rows = copy.deepcopy(ref)
    rows[3]["bound"] = repr(float(rows[3]["bound"]) * (1.0 + 1e-5))
    problems = gate.compare("bounds_uniform", rows, ref)
    assert len(problems) == 1 and "bound" in problems[0]
    rows[3]["bound"] = repr(float(ref[3]["bound"]) * (1.0 + 1e-7))
    assert gate.compare("bounds_uniform", rows, ref) == []


def test_gate_rejects_an_error_row():
    ref = _reference("campaign_ht", "bench_ht")
    rows = copy.deepcopy(ref)
    rows[1]["error"] = "ArithmeticError: time-average quadrature did not converge"
    problems = gate.compare("bench_ht", rows, ref)
    assert len(problems) == 1 and "error" in problems[0]
    added = copy.deepcopy(ref) + [dict(ref[0], alpha="0.6", error="ValueError: x")]
    assert gate.compare("bench_ht", added, ref) != []


def test_gate_checks_mse_and_the_r_bands():
    ref = _reference("campaign_ht", "bench_ht")
    rows = copy.deepcopy(ref)
    rows[0]["mse"] = repr(10.0 * float(rows[0]["mse"]))
    assert "mse" in gate.compare("bench_ht", rows, ref)[0]
    rows = copy.deepcopy(ref)
    for row in rows:
        if row["protocol"] == "csqpe":
            row["ratio_r"] = repr(0.5 * float(ref[0]["ratio_r"]))
    assert "csqpe" in gate.check_bands("bench_ht", rows)[0]
    rows = copy.deepcopy(ref)
    rows[0].update(ratio_r="30.0", mse_se=repr(0.01 * float(rows[0]["mse"])))
    assert "outside" in gate.check_bands("bench_ht", rows)[0]


def test_diag_ratio_tolerance_follows_the_regime():
    ref = _reference("accounting_sweep", "diag_head_dense")
    breakdown = max(ref, key=lambda r: float(r["diag_ratio"]))
    assert float(breakdown["diag_ratio"]) > 1e6
    rows = copy.deepcopy(ref)
    i = ref.index(breakdown)
    rows[i]["diag_ratio"] = repr(2.0 * float(breakdown["diag_ratio"]))
    assert gate.compare("diag_head_dense", rows, ref) == []
    rows[i]["diag_ratio"] = "1.5"
    assert gate.compare("diag_head_dense", rows, ref) != []


def test_gate_header_carries_the_run_seed():
    ref = "# qpe-bounds v0.1.0 seed=42"
    assert gate.check_header("x", "# qpe-bounds v0.1.0 seed=7", ref, 7) == []
    assert gate.check_header("x", "# qpe-bounds v0.1.0 seed=42", ref, 7) != []


REQUIRED_PER_LAYER = (
    [f"dirichlet.{f}.{m}" for f in ("dirichlet", "dirichlet_derivative") for m in ("evals", "self_s")]
    + [f"dirichlet.evals.{c}" for c in ("fim", "estimators", "simulate")]
    + ["fim.total_fim.calls", "fim.f_i_max.calls"]
    + [f"fim.total_fim.self_s.{k}" for k in ("qmegs", "csqpe", "qcels", "qft")]
    + ["bounds.diag_ratio.calls", "bounds.diag_ratio.self_s",
       "bounds.cholesky.attempts", "bounds.cholesky.failed",
       "schedules.realize.calls", "schedules.realize.self_s",
       "simulate.sample_ht.self_s", "simulate.sample_ht.records",
       "simulate.sample_qft.self_s", "simulate.sample_qft.shots"]
    + [f"estimators.{e}.{m}"
       for e in ("estimate_qmegs", "estimate_csqpe", "estimate_qcels_ml", "estimate_curvefit_qft")
       for m in ("calls", "self_s", "p50_ms", "failed")]
    + [f"estimators.{e}.p90_ms" for e in ("estimate_qmegs", "estimate_csqpe", "estimate_qcels_ml")]
    + ["estimators.nnls.calls", "bench.run_campaign.self_s", "bench.write_rows_csv.self_s",
       "bench.pool.utilisation", "cli.main.self_s", "spectrum.make_spectrum.self_s",
       "trace.overhead_s"]
)


def test_metric_names_match_the_benchmark_definition():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == tracing.METRICS
    assert set(REQUIRED_PER_LAYER) <= set(per_layer)
    assert set(per_layer) - set(REQUIRED_PER_LAYER) == (
        {f"share.{layer}" for layer in tracing.LAYERS} | {"fim.total_fim.distinct", "trace.spans"}
    )
    assert all(m["unit"] == tracing.unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(tracing.layer_metrics(tracing.Tracer())) | {"trace.overhead_s"} == set(per_layer)


def test_every_layer_boundary_exists_in_the_package():
    sys.path.insert(0, os.path.join(HERE, "..", "src"))
    tracer = tracing.Tracer().install()
    try:
        assert len(tracer._patches) == len(tracing.BOUNDARIES)
    finally:
        tracer.uninstall()
    import qpe_bounds.bench

    assert not hasattr(qpe_bounds.bench.total_fim, "__wrapped__")
