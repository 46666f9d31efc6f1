"""Worker process: runs one workload's CLI commands and measures them.

Started fresh by ``run.py`` for every run, with ``src`` on ``PYTHONPATH``
and the BLAS and OpenMP thread counts fixed at one.

    worker.py setup <config.json>   print the clock once qpe_bounds is
                                    imported and the config is loaded
    worker.py run <plan.json>       run repetitions, each followed by
                                    host-speed kernel passes, and write
                                    the result file
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import hostspeed
import tracing
import workloads

KERNEL_SHARE = 0.05


def setup(config_path):
    from qpe_bounds import cli

    with open(config_path) as fh:
        cli.bench.CampaignConfig.from_dict(json.load(fh))
    print(repr(time.perf_counter()))


def _csv_summary(path):
    """(sha256 of the bytes, rows, rows with an error) of a CLI CSV."""
    with open(path, "rb") as fh:
        data = fh.read()
    rows = list(csv.DictReader(io.StringIO(data.decode().split("\n", 1)[1])))
    return hashlib.sha256(data).hexdigest(), len(rows), sum(1 for r in rows if r["error"])


def _repetition(cli, plan, rep_dir):
    os.makedirs(rep_dir, exist_ok=True)
    commands = workloads.WORKLOADS[plan["workload"]]["commands"]
    argvs = [
        workloads.argv(
            c, os.path.join(plan["work_dir"], c["name"] + ".json"),
            os.path.join(rep_dir, c["name"] + ".csv"), plan["seed"],
        )
        for c in commands
    ]
    codes = []
    t0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(io.StringIO()):
        for a in argvs:
            try:
                codes.append(cli.main(a))
            except Exception as exc:  # a traceback is a failed command, not a dead run
                codes.append(f"{type(exc).__name__}: {exc}")
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    outputs = {}
    for c, code in zip(commands, codes):
        path = os.path.join(rep_dir, c["name"] + ".csv")
        sha, rows, errors = _csv_summary(path) if os.path.exists(path) else (None, 0, 0)
        outputs[c["name"]] = {"exit": code, "sha256": sha, "rows": rows, "error_rows": errors}
    return {"wall_s": wall, "cpu_s": cpu, "outputs": outputs}


def run(plan_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    import numpy
    import scipy
    from qpe_bounds import cli

    result = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "qpe_bounds": os.path.relpath(sys.modules["qpe_bounds"].__file__, plan["root"]),
        "reps": [],
        "layers": [],
        "estimator_ms": {},
    }
    spans = []
    hostspeed.kernel_s()  # the first pass pays numpy's lazy set-up
    result["kernel_s"] = [hostspeed.sample_s()]
    start = time.perf_counter()
    while True:
        rep = len(result["reps"])
        walls = [r["wall_s"] for r in result["reps"]]
        if rep >= plan["min_reps"] and (
            time.perf_counter() - start + statistics.median(walls) > plan["seconds"]
        ):
            break
        # in the traced run, untraced and traced repetitions alternate so
        # both see the same machine state; the first is untraced
        traced = bool(plan["trace"]) and rep % 2 == 1
        tracer = tracing.Tracer().install() if traced else None
        try:
            record = _repetition(cli, plan, os.path.join(plan["work_dir"], f"rep{rep}"))
        finally:
            if tracer:
                tracer.uninstall()
        record["traced"] = traced
        result["reps"].append(record)
        # a twentieth of the repetition: long repetitions get more passes
        result["kernel_s"].append(hostspeed.sample_s(KERNEL_SHARE * record["wall_s"]))
        if tracer:
            result["layers"].append(tracing.layer_metrics(tracer))
            for e, ms in tracing.estimator_ms(tracer).items():
                result["estimator_ms"].setdefault(e, []).extend(ms)
            spans += [dict(s.as_dict(), rep=rep) for s in tracer.spans]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spans:
        with open(os.path.join(plan["work_dir"], "spans.jsonl"), "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    mode, path = sys.argv[1:3]
    setup(path) if mode == "setup" else run(path)
