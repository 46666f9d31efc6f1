"""Spans at the package's layer boundaries, for the traced run only.

Every public name is wrapped where the importing module looks it up, not
where it is defined: ``bench.py`` imports by name, so wrapping
``qpe_bounds.estimators.estimate_qmegs`` would record nothing, while
``qpe_bounds.bench.estimate_qmegs`` records every trial.  Spans stay in
memory; each one holds its name, start, end, parent and thread, and the
spans of one CLI command share a command id.  Each thread keeps its own
parent stack; a span opened on a thread with an empty stack (a trial in
the pool) takes the innermost open span of the root thread as parent.
"""

import functools
import importlib
import statistics
import threading
import time
from collections import defaultdict

LAYERS = (
    "cli", "bench", "spectrum", "fim", "bounds",
    "schedules", "simulate", "estimators", "dirichlet",
)
KINDS = ("qmegs", "csqpe", "qcels", "qft")
ESTIMATORS = (
    "estimate_qmegs", "estimate_csqpe", "estimate_qcels_ml", "estimate_curvefit_qft",
)
# the per-trial percentile needs at least 10 samples beyond it; only the
# Hadamard-test estimators reach 100 calls, over the two or more traced
# repetitions of a run (50 trials each)
P90_ESTIMATORS = ESTIMATORS[:3]
P90_MIN_SAMPLES = 100
TRIAL_SPANS = frozenset(
    ["schedules.realize", "simulate.sample_ht", "simulate.sample_qft"]
    + [f"estimators.{e}" for e in ESTIMATORS]
)


class Span:
    __slots__ = ("id", "name", "tag", "start", "end", "parent", "thread", "command", "failed")

    def __init__(self, id, name, tag, parent, thread, command):
        self.id, self.name, self.tag = id, name, tag
        self.parent, self.thread, self.command = parent, thread, command
        self.start = self.end = 0.0
        self.failed = False

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Records spans and call counters; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.fim_keys = set()
        self._lock = threading.Lock()
        self._stacks = {}
        self._root = threading.get_ident()
        self._commands = 0
        self._patches = []

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def _open(self, name, tag):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            root = self._stacks.get(self._root)
            parent = root[-1] if root else None
        with self._lock:
            if parent is None:
                self._commands += 1
            span = Span(
                len(self.spans), name, tag,
                None if parent is None else parent.id, tid,
                self._commands if parent is None else parent.command,
            )
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stacks[span.thread].pop()

    def wrap(self, module_name, attr, name, hook=None, span=True):
        """Replace ``module.attr`` by a wrapper recording each call.

        With ``span`` the call becomes a span tagged ``hook(tracer, args,
        kwargs)``; without, only its calls and failures are counted.
        """
        module = importlib.import_module(module_name)
        inner = getattr(module, attr)

        if span:
            @functools.wraps(inner)
            def wrapper(*args, **kwargs):
                opened = self._open(name, hook(self, args, kwargs) if hook else None)
                try:
                    return inner(*args, **kwargs)
                except Exception:
                    opened.failed = True
                    raise
                finally:
                    self._close(opened)
        else:
            @functools.wraps(inner)
            def wrapper(*args, **kwargs):
                self.count(name + ".calls")
                try:
                    return inner(*args, **kwargs)
                except Exception:
                    self.count(name + ".failed")
                    raise

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, inner))

    def install(self):
        for module_name, attr, name, hook, span in BOUNDARIES:
            self.wrap(module_name, attr, name, hook, span)
        return self

    def uninstall(self):
        while self._patches:
            module, attr, inner = self._patches.pop()
            setattr(module, attr, inner)


def _arg(args, kwargs, pos, key, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _kind_of(tracer, args, kwargs):
    spectrum = args[0]
    kind = _arg(args, kwargs, 1, "kind")
    kind = getattr(kind, "value", kind)
    T = float(_arg(args, kwargs, 2, "T"))
    key = hash((spectrum.phases.tobytes(), spectrum.overlaps.tobytes(), kind, T))
    with tracer._lock:
        tracer.fim_keys.add(key)
    return kind


def _evals(caller):
    def hook(tracer, args, kwargs):
        return caller, getattr(_arg(args, kwargs, 1, "x"), "size", 1)
    return hook


def _records(tracer, args, kwargs):
    return _arg(args, kwargs, 1, "schedule").times.size


def _shots(tracer, args, kwargs):
    return int(_arg(args, kwargs, 2, "N_s"))


def _threads(tracer, args, kwargs):
    return int(_arg(args, kwargs, 1, "threads", 1))


# (module the name is looked up in, attribute, span name, hook, is a span);
# the two scipy solvers are counted, not timed, so their time stays in
# the layer that calls them
BOUNDARIES = [
    ("qpe_bounds.cli", "main", "cli.main", None, True),
    ("qpe_bounds.bench", "run_campaign", "bench.run_campaign", _threads, True),
    ("qpe_bounds.bench", "sweep_bounds", "bench.sweep_bounds", None, True),
    ("qpe_bounds.bench", "check_diag", "bench.check_diag", None, True),
    ("qpe_bounds.bench", "gi_sweep", "bench.gi_sweep", None, True),
    ("qpe_bounds.bench", "write_rows_csv", "bench.write_rows_csv", None, True),
    ("qpe_bounds.bench", "make_spectrum", "spectrum.make_spectrum", None, True),
    ("qpe_bounds.bench", "total_fim", "fim.total_fim", _kind_of, True),
    ("qpe_bounds.bench", "f_i_max", "fim.f_i_max", None, True),
    ("qpe_bounds.bench", "_diag_ratio", "bounds.diag_ratio", None, True),
    ("qpe_bounds.bounds", "cho_factor", "bounds.cholesky", None, False),
    ("qpe_bounds.bench", "realize", "schedules.realize", None, True),
    ("qpe_bounds.bench", "sample_ht", "simulate.sample_ht", _records, True),
    ("qpe_bounds.bench", "sample_qft", "simulate.sample_qft", _shots, True),
    *[("qpe_bounds.bench", e, f"estimators.{e}", None, True) for e in ESTIMATORS],
    ("qpe_bounds.estimators", "nnls", "estimators.nnls", None, False),
    *[
        (f"qpe_bounds.{caller}", fn, f"dirichlet.{fn}", _evals(caller), True)
        for caller, fns in (
            ("fim", ("dirichlet", "dirichlet_derivative")),
            ("estimators", ("dirichlet", "dirichlet_derivative")),
            ("simulate", ("dirichlet",)),
        )
        for fn in fns
    ],
]


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Span id -> duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.id: (s.end - s.start) - covered([(c.start, c.end) for c in children[s.id]], s.start, s.end)
        for s in spans
    }, children


def pool_utilisation(spans, children):
    """Trial busy time over (trial-phase wall x workers), summed over campaigns.

    The trial phase of a campaign runs from its first trial span to its
    last, minus the accounting the root thread does in between.
    """
    busy = capacity = 0.0
    for run in spans:
        if run.name != "bench.run_campaign":
            continue
        trials = [c for c in children[run.id] if c.name in TRIAL_SPANS]
        if not trials:
            continue
        lo, hi = min(c.start for c in trials), max(c.end for c in trials)
        serial = [(c.start, c.end) for c in children[run.id]
                  if c.name not in TRIAL_SPANS and c.thread == run.thread]
        capacity += ((hi - lo) - covered(serial, lo, hi)) * run.tag
        per_thread = defaultdict(list)
        for c in trials:
            per_thread[c.thread].append((c.start, c.end))
        busy += sum(covered(iv, lo, hi) for iv in per_thread.values())
    return busy / capacity if capacity else 0.0


def _pct(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def estimator_ms(tracer):
    """Call durations in ms of each estimator, to pool across repetitions."""
    by_name = {f"estimators.{e}": [] for e in ESTIMATORS}
    for s in tracer.spans:
        if s.name in by_name:
            by_name[s.name].append(1e3 * (s.end - s.start))
    return {e: by_name[f"estimators.{e}"] for e in ESTIMATORS}


def percentiles(ms):
    """``p50_ms`` and, with enough samples, ``p90_ms`` of each estimator."""
    m = {}
    for e in ESTIMATORS:
        m[f"estimators.{e}.p50_ms"] = statistics.median(ms[e]) if ms[e] else 0.0
        if e in P90_ESTIMATORS:
            m[f"estimators.{e}.p90_ms"] = (
                _pct(ms[e], 90) if len(ms[e]) >= P90_MIN_SAMPLES else 0.0
            )
    return m


def layer_metrics(tracer):
    """Per-layer metrics of one traced repetition (names as in METRICS)."""
    spans, counts = tracer.spans, tracer.counts
    selfs, children = self_times(spans)
    calls, failed, work = defaultdict(int), defaultdict(int), defaultdict(int)
    self_s, layer_self = defaultdict(float), defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        failed[s.name] += s.failed
        layer_self[s.name.split(".")[0]] += selfs[s.id]
        self_s[s.name if s.name != "fim.total_fim" else f"fim.total_fim.{s.tag}"] += selfs[s.id]
        if s.name.startswith("dirichlet."):
            caller, n = s.tag
            work[s.name] += n
            work[f"dirichlet.evals.{caller}"] += n
        elif s.name.startswith("simulate."):
            work[s.name] += s.tag
    m = {}
    for fn in ("dirichlet", "dirichlet_derivative"):
        m[f"dirichlet.{fn}.evals"] = work[f"dirichlet.{fn}"]
        m[f"dirichlet.{fn}.self_s"] = self_s[f"dirichlet.{fn}"]
    for caller in ("fim", "estimators", "simulate"):
        m[f"dirichlet.evals.{caller}"] = work[f"dirichlet.evals.{caller}"]
    m["fim.total_fim.calls"] = calls["fim.total_fim"]
    m["fim.total_fim.distinct"] = len(tracer.fim_keys)
    for kind in KINDS:
        m[f"fim.total_fim.self_s.{kind}"] = self_s[f"fim.total_fim.{kind}"]
    m["fim.f_i_max.calls"] = calls["fim.f_i_max"]
    m["bounds.diag_ratio.calls"] = calls["bounds.diag_ratio"]
    m["bounds.diag_ratio.self_s"] = self_s["bounds.diag_ratio"]
    m["bounds.cholesky.attempts"] = counts["bounds.cholesky.calls"]
    m["bounds.cholesky.failed"] = counts["bounds.cholesky.failed"]
    m["schedules.realize.calls"] = calls["schedules.realize"]
    m["schedules.realize.self_s"] = self_s["schedules.realize"]
    m["simulate.sample_ht.self_s"] = self_s["simulate.sample_ht"]
    m["simulate.sample_ht.records"] = work["simulate.sample_ht"]
    m["simulate.sample_qft.self_s"] = self_s["simulate.sample_qft"]
    m["simulate.sample_qft.shots"] = work["simulate.sample_qft"]
    pct = percentiles(estimator_ms(tracer))
    for e in ESTIMATORS:
        name = f"estimators.{e}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.p50_ms"] = pct[f"{name}.p50_ms"]
        m[f"{name}.failed"] = failed[name]
        if e in P90_ESTIMATORS:
            m[f"{name}.p90_ms"] = pct[f"{name}.p90_ms"]
    m["estimators.nnls.calls"] = counts["estimators.nnls.calls"]
    m["bench.run_campaign.self_s"] = self_s["bench.run_campaign"]
    m["bench.write_rows_csv.self_s"] = self_s["bench.write_rows_csv"]
    m["bench.pool.utilisation"] = pool_utilisation(spans, children)
    m["cli.main.self_s"] = self_s["cli.main"]
    m["spectrum.make_spectrum.self_s"] = self_s["spectrum.make_spectrum"]
    total = sum(layer_self.values())
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_self[layer] / total if total else 0.0
    m["trace.spans"] = len(spans)
    return m


def unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or ".self_s." in name:
        return "s"
    if name.startswith("share.") or name.endswith(".utilisation"):
        return "ratio"
    return "count"


# every per-layer metric of the traced run, in report order
METRICS = [*layer_metrics(Tracer()), "trace.overhead_s"]
