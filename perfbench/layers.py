"""Outside-in layer spans for the traced run.

The program is not instrumented for this: :func:`install` wraps the
public function at each layer boundary (the campaign planner, trial
keys, document decoding, workload scheduling, the batch compiler,
executor and materializer, the fast tier's build and event loop,
report and record serialisation, and the result store) with a timer
that records a span into an in-memory :class:`Recorder`.  Spans are
recorded only on the thread that armed the recorder, during a named
pass; when the run ends they are turned into per-layer numbers and
written out with :func:`write_spans`.

A span's *self time* is its duration minus the time covered by the
spans nested inside it; within one ``campaign.run`` span the self
times of all nested spans add up to that span's wall time exactly,
so the breakdown accounts for the whole cold pass.  The span around
one trial's execution is named ``trial.self`` after the number it
yields.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Layers with one sample per trial (or per call, for calls made
#: outside any trial), reported as p50/p95 in milliseconds.
PER_TRIAL_LAYERS = (
    "scenario.decode",
    "scenario.schedule",
    "batch.compile",
    "batch.execute",
    "batch.materialize",
    "fast.build",
    "fast.execute",
    "report.to_dict",
    "report.record",
    "store.put",
    "store.get",
    "trial.self",
)

#: Layer spans of each simulation tier: these are read from every
#: pass that ran the tier (the gate's other-tier pass included).
TIER_LAYERS = (
    "batch.compile", "batch.execute", "batch.materialize",
    "fast.build", "fast.execute",
)

#: Layers measured on the cached pass rather than the cold one.
CACHED_LAYERS = ("store.open", "store.get")

#: Self time counted as record and store work, and as simulation work,
#: for the property shares of the cold wall.
STORE_RECORD_LAYERS = (
    "report.to_dict", "report.record", "store.put", "store.get",
)
EXECUTE_LAYERS = ("batch.execute", "fast.execute")


@dataclass
class Span:
    layer: str
    start_ns: int
    end_ns: int
    pass_name: str
    #: (campaign run number, trial index) of the trial being executed
    #: when the span ended; None before the run's first trial.
    trial: Optional[Tuple[int, int]]


class Recorder:
    """In-memory span and count store for one traced process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._thread: Optional[int] = None
        self.pass_name = ""
        self.run_seq = 0
        self.trial: Optional[Tuple[int, int]] = None
        self.build_start: Optional[int] = None
        self.record_bytes: List[int] = []
        #: One (wall_s, workers, worker_busy_s) per process-pool run.
        self.pools: List[Tuple[float, int, float]] = []
        self.pool_armed = False

    def active(self) -> bool:
        return self._thread == threading.get_ident()

    @contextmanager
    def recording(self, pass_name: str):
        """Record spans from this thread under ``pass_name``."""
        self._thread = threading.get_ident()
        self.pass_name = pass_name
        self.trial = None
        try:
            yield
        finally:
            self._thread = None
            self.build_start = None

    def add(self, layer: str, start_ns: int, end_ns: int) -> None:
        self.spans.append(
            Span(layer, start_ns, end_ns, self.pass_name, self.trial)
        )


def _timed(rec: Recorder, layer: str, fn, on_enter=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active():
            return fn(*args, **kwargs)
        if on_enter is not None:
            on_enter(*args)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.add(layer, start, time.perf_counter_ns())

    return wrapper


def install(rec: Recorder):
    """Wrap every layer boundary; returns a function that unwraps."""
    import repro.batch as batch
    import repro.campaign.campaign as campaign_mod
    import repro.campaign.executors as executors
    import repro.campaign.store as store_mod
    import repro.campaign.trial as trial_mod
    import repro.scenario.workload as workload_mod
    from repro.core.bus import MBusSystem
    from repro.scenario.runner import RunReport
    from repro.scenario.spec import SystemSpec

    saved = []

    def patch(owner, name, value) -> None:
        saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def timed(owner, name, layer, on_enter=None) -> None:
        original = owner.__dict__[name]
        if isinstance(original, classmethod):
            patch(owner, name, classmethod(
                _timed(rec, layer, original.__func__, on_enter)
            ))
        else:
            patch(owner, name, _timed(rec, layer, original, on_enter))

    def run_entered(*_args) -> None:
        rec.run_seq += 1
        rec.trial = None

    def trial_entered(trial, *_args) -> None:
        rec.trial = (rec.run_seq, trial.index)

    def build_entered(*_args) -> None:
        rec.build_start = time.perf_counter_ns()

    def loop_entered(*_args) -> None:
        # The fast tier's build span runs from SystemSpec.build to the
        # event loop, so it covers scheduling the workload too.
        if rec.build_start is not None:
            rec.add("fast.build", rec.build_start, time.perf_counter_ns())
            rec.build_start = None

    timed(campaign_mod.Campaign, "run", "campaign.run", run_entered)
    timed(campaign_mod.Campaign, "trials", "campaign.plan")
    key = trial_mod.Trial.__dict__["key"]
    keyed = functools.cached_property(_timed(rec, "campaign.key", key.func))
    keyed.__set_name__(trial_mod.Trial, "key")
    patch(trial_mod.Trial, "key", keyed)
    timed(executors, "execute_trial", "trial.self", trial_entered)
    timed(SystemSpec, "from_dict", "scenario.decode")
    timed(workload_mod, "workload_from_dict", "scenario.decode")
    timed(campaign_mod, "workload_from_dict", "scenario.decode")
    timed(workload_mod.Workload, "compile", "scenario.schedule")
    timed(batch, "compile_system_cached", "batch.compile")
    timed(batch, "compile_workload", "batch.compile")
    timed(batch.BatchExecutor, "run", "batch.execute")
    timed(batch, "materialize", "batch.materialize")
    patch(SystemSpec, "build", _wrap_enter(rec, SystemSpec.build,
                                           build_entered))
    timed(MBusSystem, "run_until_idle", "fast.execute", loop_entered)
    timed(RunReport, "to_dict", "report.to_dict")
    timed(trial_mod, "trial_record", "report.record")

    canonical_json = store_mod.canonical_json

    def counted(document):
        line = canonical_json(document)
        if rec.active():
            rec.record_bytes.append(len(line.encode("utf-8")))
        return line

    patch(store_mod, "canonical_json", _timed(rec, "report.record", counted))
    timed(store_mod.ResultStore, "put", "store.put")
    timed(store_mod.ResultStore, "__init__", "store.open")
    timed(store_mod.ResultStore, "get", "store.get")
    patch(executors.ProcessPool, "run",
          _pool_collector(rec, executors.ProcessPool.run))

    def uninstall() -> None:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)

    return uninstall


def _wrap_enter(rec: Recorder, fn, on_enter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.active():
            on_enter(*args)
        return fn(*args, **kwargs)

    return wrapper


def _pool_collector(rec: Recorder, run):
    """Time ``ProcessPool.run`` and sum the workers' reported trial
    wall times, on whichever thread the pool runs (a campaign
    server runs it on its worker thread)."""

    @functools.wraps(run)
    def wrapper(self, trials, on_outcome, stop):
        if not rec.pool_armed:
            return run(self, trials, on_outcome, stop)
        busy = [0.0]

        def counting(trial, record, wall_s, live):
            busy[0] += wall_s
            on_outcome(trial, record, wall_s, live)

        start = time.perf_counter()
        try:
            return run(self, trials, counting, stop)
        finally:
            workers = min(self.n_workers, len(trials)) or 1
            rec.pools.append((time.perf_counter() - start, workers, busy[0]))

    return wrapper


# ----------------------------------------------------------------------
# From spans to numbers.
# ----------------------------------------------------------------------
def self_times(spans: List[Span]) -> List[Tuple[Span, int]]:
    """``(span, self_ns)`` for spans recorded on one thread; nesting is
    recovered from the intervals."""
    order = sorted(
        range(len(spans)), key=lambda i: (spans[i].start_ns, -spans[i].end_ns)
    )
    covered = [0] * len(spans)
    stack: List[int] = []
    for i in order:
        span = spans[i]
        while stack and spans[stack[-1]].end_ns <= span.start_ns:
            stack.pop()
        if stack:
            covered[stack[-1]] += span.end_ns - span.start_ns
        stack.append(i)
    return [
        (span, span.end_ns - span.start_ns - covered[i])
        for i, span in enumerate(spans)
    ]


def write_spans(rec: Recorder, path: Path) -> None:
    """Write every recorded span, with its self time, as JSON lines."""
    with open(path, "w") as handle:
        for span, self_ns in self_times(rec.spans):
            handle.write(json.dumps({
                "layer": span.layer,
                "pass": span.pass_name,
                "trial": span.trial,
                "start_ns": span.start_ns,
                "end_ns": span.end_ns,
                "self_ns": self_ns,
            }) + "\n")


def _percentile(values: List[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


def _passes(layer: str) -> Tuple[str, ...]:
    """The passes a layer's metrics are read from."""
    if layer in CACHED_LAYERS:
        return ("cached",)
    if layer in TIER_LAYERS:
        return ("cold", "cross")
    if layer.startswith("campaign."):
        return ("cold", "setup")
    return ("cold",)


def breakdown(rec: Recorder) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer self times (seconds), per-trial p50/p95 (ms) and the
    cold-wall accounting, from the recorded spans; plus the self time
    of each layer in the ``cold`` pass, which sums to its wall time.

    Tier layers also count the ``cross`` pass (the same trials on the
    other tier); ``store.open``/``store.get`` come from the ``cached``
    pass; the campaign planner also counts ``setup``.
    """
    totals: Dict[str, float] = {}
    samples: Dict[str, Dict[object, float]] = {}
    table: Dict[str, float] = {}
    cold_wall = 0.0
    for n, (span, self_ns) in enumerate(self_times(rec.spans)):
        seconds = self_ns / 1e9
        if span.pass_name == "cold":
            table[span.layer] = table.get(span.layer, 0.0) + seconds
            if span.layer == "campaign.run":
                cold_wall += (span.end_ns - span.start_ns) / 1e9
        if span.pass_name not in _passes(span.layer):
            continue
        totals[span.layer] = totals.get(span.layer, 0.0) + seconds
        group = samples.setdefault(span.layer, {})
        sample = (span.pass_name, span.trial) if span.trial else n
        group[sample] = group.get(sample, 0.0) + seconds

    metrics: Dict[str, float] = {
        f"{layer}_s": totals.get(layer, 0.0)
        for layer in (
            "campaign.plan", "campaign.key", "scenario.decode",
            "scenario.schedule", "batch.compile", "batch.execute",
            "batch.materialize", "fast.build", "fast.execute",
            "report.to_dict", "report.record", "store.put", "store.open",
            "store.get", "trial.self",
        )
    }
    run_self = table.get("campaign.run", 0.0)
    metrics["campaign.run_self_s"] = run_self
    for layer in PER_TRIAL_LAYERS:
        values = sorted(samples.get(layer, {}).values()) or [0.0]
        metrics[f"{layer}.p50_ms"] = _percentile(values, 0.50) * 1e3
        metrics[f"{layer}.p95_ms"] = _percentile(values, 0.95) * 1e3

    wall = cold_wall or 1.0
    metrics["trace.cold_wall_s"] = cold_wall
    metrics["trace.attributed_share"] = (sum(table.values()) - run_self) / wall
    metrics["share.store_record"] = (
        sum(table.get(layer, 0.0) for layer in STORE_RECORD_LAYERS) / wall
    )
    metrics["share.execute"] = (
        sum(table.get(layer, 0.0) for layer in EXECUTE_LAYERS) / wall
    )
    return metrics, table
