"""Benchmark of the qpe-bounds CLI: one workload per run, gated for correctness.

    python3 perfbench/run.py --workload campaign_ht --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Each run starts fresh worker
processes with ``src`` on ``PYTHONPATH``: a few that only import the
package and load a config (set-up time), then one that repeats the
workload's CLI commands for ``--seconds``, timing the host-speed kernel
of ``hostspeed.py`` before the first repetition and after each one.
Times are reported at the reference host's speed (see ``_end_to_end``);
the times as read are in the environment line.  The CSVs of every
repetition must be byte-identical and must pass the gate against the references in
``perfbench/reference``.  The last line of standard output is one JSON
object; with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the traced repetitions and the
tracing overhead.  ``--write-reference`` rewrites the references instead
of gating (use it with ``--seed 42`` and only when outputs change on
purpose).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, argv  # noqa: E402

SETUP_PROBES = 7
MIN_REPS = 2
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The run could not be made; nothing is reported."""


def _worker_env(root):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.update({k: "1" for k in THREAD_ENV})
    return env


def _git_commit(root):
    """HEAD of the checkout read from its .git directory, if it has one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _setup_times(root, env, config_path, probes):
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "setup", config_path],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def _measure(root, args, work_dir):
    """Write configs and plan, run probes and the worker; return the raw record."""
    env = _worker_env(root)
    commands = WORKLOADS[args.workload]["commands"]
    for c in commands:
        with open(os.path.join(work_dir, c["name"] + ".json"), "w") as fh:
            json.dump(c["config"], fh, indent=1)
    setup = _setup_times(root, env, os.path.join(work_dir, commands[0]["name"] + ".json"),
                         SETUP_PROBES)
    plan = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "min_reps": MIN_REPS, "root": root,
        "work_dir": work_dir, "result": os.path.join(work_dir, "worker.json"),
    }
    plan_path = os.path.join(work_dir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "run", plan_path],
        cwd=root, env=env, capture_output=True, text=True, timeout=150,
    )
    if done.returncode != 0:
        raise BenchError(f"worker failed:\n{done.stderr}")
    with open(plan["result"]) as fh:
        record = json.load(fh)
    if not record["qpe_bounds"].startswith("src" + os.sep):
        raise BenchError(f"the worker imported {record['qpe_bounds']}, not the checkout's src/")
    record["setup_s"] = setup
    return record


def _gate(args, record, work_dir):
    """(problems, attempted rows, failed rows) of all repetitions."""
    problems, attempted, failed = [], 0, 0
    commands = WORKLOADS[args.workload]["commands"]
    ref_dir = os.path.join(HERE, "reference", args.workload)
    first = record["reps"][0]["outputs"]
    for c in commands:
        name = c["name"]
        ref_header, ref_rows = gate.read_csv(os.path.join(ref_dir, name + ".csv"))
        for rep, r in enumerate(record["reps"]):
            out = r["outputs"][name]
            attempted += len(ref_rows)
            failed += max(out["error_rows"], out["exit"] != 0)
            if out["exit"] != 0:
                problems.append(f"{name} rep {rep}: exit {out['exit']}")
            if out["sha256"] != first[name]["sha256"]:
                problems.append(f"{name} rep {rep}: CSV bytes differ from rep 0")
        path = os.path.join(work_dir, "rep0", name + ".csv")
        if not os.path.exists(path):
            problems.append(f"{name}: no CSV written")
            continue
        header, rows = gate.read_csv(path)
        problems += gate.check_header(name, header, ref_header, args.seed)
        problems += gate.compare(name, rows, ref_rows)
        if c["subcommand"] == "bench":
            problems += gate.check_bands(name, rows)
    return problems, attempted, failed


def _items(args, record):
    """Work items in one repetition: CSV rows, or trials for campaigns."""
    items = 0
    for c in WORKLOADS[args.workload]["commands"]:
        rows = record["reps"][0]["outputs"][c["name"]]["rows"]
        items += rows * (c["config"]["trials"] if c["subcommand"] == "bench" else 1)
    return items


def _end_to_end(args, record, at_reference_speed=True):
    """Medians over the run, at the reference host's speed unless
    ``at_reference_speed`` is false (then as read on this host).

    Set-up time is scaled by the run's median kernel time.  Repetitions
    are scaled one by one, by the kernel times around each, only when
    every command runs on one thread: the one-thread kernel does not
    follow a pooled repetition (in three sets of ten seeds of
    ``campaign_qft``, scaling took the spread of ``wall_s`` from 0.13,
    0.14 and 0.12 to 0.26, 0.17 and 0.11)."""
    reps = record["reps"]
    items = _items(args, record)
    setup = statistics.median(record["setup_s"])
    walls = [r["wall_s"] for r in reps]
    cpus = [r["cpu_s"] for r in reps]
    if at_reference_speed:
        setup *= hostspeed.speed(record["kernel_s"])
        if all(c["threads"] == 1 for c in WORKLOADS[args.workload]["commands"]):
            walls = hostspeed.scaled(walls, record["kernel_s"])
            cpus = hostspeed.scaled(cpus, record["kernel_s"])
    return {
        "setup_s": setup,
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(items / w for w in walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": record["peak_rss_mb"],
    }, items


def _per_layer(record):
    layers = record["layers"]
    walls = {t: [r["wall_s"] for r in record["reps"] if r["traced"] == t] for t in (False, True)}
    metrics = {
        name: statistics.median(layer[name] for layer in layers)
        for name in layers[0]
    }
    # per-call percentiles pool the calls of every traced repetition
    metrics.update(tracing.percentiles(record["estimator_ms"]))
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return metrics


def _environment(root, args, record, items):
    commands = WORKLOADS[args.workload]["commands"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": platform.machine(),
        "processor": platform.processor(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": record["python"],
        "numpy": record["numpy"],
        "scipy": record["scipy"],
        "blas": record["blas"],
        "thread_env": {k: "1" for k in THREAD_ENV},
        "git_commit": _git_commit(root),
        "package": record["qpe_bounds"],
        "samples": {
            "setup_probes": len(record["setup_s"]),
            "repetitions": len(record["reps"]),
            "traced_repetitions": len(record["layers"]),
            "items_per_repetition": items,
        },
        "commands": [
            {"argv": argv(c, f"{c['name']}.json", f"rep<k>/{c['name']}.csv", args.seed),
             "config": c["config"]}
            for c in commands
        ],
    }


def _write_reference(args, work_dir):
    ref_dir = os.path.join(HERE, "reference", args.workload)
    os.makedirs(ref_dir, exist_ok=True)
    for c in WORKLOADS[args.workload]["commands"]:
        shutil.copyfile(os.path.join(work_dir, "rep0", c["name"] + ".csv"),
                        os.path.join(ref_dir, c["name"] + ".csv"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qpe_bounds", "cli.py")):
        print("run.py: no src/qpe_bounds under the working directory; "
              "run it from the root of a qpe-bounds checkout", file=sys.stderr)
        return 2
    work_dir = os.path.join(HERE, "out", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        record = _measure(root, args, work_dir)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.write_reference:
        _write_reference(args, work_dir)
        return 0

    problems, attempted, failed = _gate(args, record, work_dir)
    metrics, items = _end_to_end(args, record)
    env = _environment(root, args, record, items)
    correct = not problems
    if args.trace:
        metrics = _per_layer(record)
        units = {name: tracing.unit(name) for name in metrics}
    else:
        units = END_TO_END
    env["correct"], env["problems"] = correct, problems
    env["failed_frac"] = failed / attempted
    env["host_speed"] = hostspeed.speed(record["kernel_s"])
    env["as_read"] = _end_to_end(args, record, at_reference_speed=False)[0]
    env["metrics"] = metrics
    with open(os.path.join(work_dir, "result.json"), "w") as fh:
        json.dump(env, fh, indent=1)
    for rep in range(1, len(record["reps"])):
        shutil.rmtree(os.path.join(work_dir, f"rep{rep}"), ignore_errors=True)

    print("environment " + json.dumps({k: v for k, v in env.items() if k != "metrics"}))
    for p in problems:
        print(f"GATE FAILED: {p}")
    if not correct:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} rows)")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
