"""One benchmark repetition, in a fresh process.

``run.py`` starts this script once per repetition, so every cold pass
starts with empty in-process caches and ``setup_s`` is measured from
process start.  The last line of standard output is one JSON object
with the repetition's measurements and the problems its correctness
checks found.

Modes:

* ``e2e`` — tracing off.  ``burst-*``: plan the campaign, open an
  empty on-disk store, run it serially (the cold pass), then reopen
  the store and re-run it (the cached passes).  ``random-serve``:
  start an in-process campaign server, submit the fast and the batch
  grid one after the other from one client, stream each to its end
  (the cold pass), then resubmit both (the cached passes).
* ``traced`` — the same inputs with layer spans and ``repro.obs``
  counters on: a pass through the campaign server, a local serial
  cold pass, a cached pass, result-set queries and, for the burst
  workloads, the same grid on the other tier.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import gate
import workloads

#: Cached re-runs per repetition (each one reopens the store).
CACHED_PASSES = 3

#: Per-request and per-stream socket timeouts for the serve client.
HTTP_TIMEOUT_S = 120.0


def _records(result_sets) -> List[Dict]:
    return [result.record for rs in result_sets for result in rs]


def _transactions(records: List[Dict]) -> int:
    return sum((r.get("report") or {}).get("n_transactions", 0)
               for r in records)


def _failed(records: List[Dict]) -> int:
    return sum(1 for r in records if r.get("outcome") != "ok")


def _other_tier_problems(workload: str, records: List[Dict]) -> List[str]:
    from repro.campaign import Campaign

    other = _records(
        Campaign.from_dict(doc).run() for doc in workloads.other_tier(workload)
    )
    if not other:
        return []
    return gate.tier_problems(records, other, f"{workload} vs other tier")


# ----------------------------------------------------------------------
# The campaign server, on a background event loop.
# ----------------------------------------------------------------------
class BackgroundServer:
    """An in-process :class:`CampaignServer` on its own loop thread."""

    def __init__(self, root: Path) -> None:
        import asyncio

        from repro.serve import CampaignServer, Scheduler

        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="perfbench-serve"
        )
        self._thread.start()
        self.server = CampaignServer(Scheduler(root=root), port=0)
        self._call(self.server.start())

    def _call(self, coroutine):
        import asyncio

        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop
        ).result(timeout=HTTP_TIMEOUT_S)

    @property
    def port(self) -> int:
        return self.server.port

    def close(self) -> None:
        try:
            self._call(self.server.stop())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=HTTP_TIMEOUT_S)
            self._loop.close()


class ServePass:
    """Closed-loop submission of campaign documents: submit one, stream
    it to its end, then submit the next."""

    def __init__(self, client) -> None:
        self.client = client
        self.requests = 0
        self.failed_requests = 0
        self.problems: List[str] = []

    def request(self, call, *args, **kwargs):
        from repro.serve import ServeError

        self.requests += 1
        try:
            return call(*args, **kwargs)
        except ServeError as exc:
            self.failed_requests += 1
            self.problems.append(f"HTTP request failed: {exc}")
            return None

    def run(self, docs: List[Dict]) -> Tuple[float, List[List[Dict]], Dict]:
        """Returns (wall_s, records per document, client-side timings
        and the jobs' executed counts)."""
        from repro.serve import SubmitOptions

        options = SubmitOptions(
            executor="process",
            workers=min(workloads.POOL_WORKERS, os.cpu_count() or 1),
        )
        timings = {"submit_s": 0.0, "first_line_s": 0.0, "stream_s": 0.0}
        streamed: List[List[Dict]] = []
        jobs = []
        start = time.perf_counter()
        for doc in docs:
            before = time.perf_counter()
            submitted = self.request(self.client.submit, doc, options)
            after = time.perf_counter()
            timings["submit_s"] += after - before
            records: List[Dict] = []
            if submitted is not None:
                job_id = submitted[0].job_id
                jobs.append(job_id)
                stream = self.request(self._stream, job_id)
                timings["stream_s"] += time.perf_counter() - after
                if stream is not None:
                    records, first_line_at = stream
                    timings["first_line_s"] += first_line_at - after
            streamed.append(records)
        wall = time.perf_counter() - start
        executed = 0
        for job_id in jobs:
            status = self.request(self.client.status, job_id)
            if status is not None:
                executed += status.executed
        timings["executed"] = executed
        return wall, streamed, timings

    def _stream(self, job_id: str) -> Tuple[List[Dict], float]:
        """The job's records, streamed to the end, and the time the
        first one arrived."""
        records: List[Dict] = []
        first_line_at = 0.0
        for record in self.client.results(job_id, timeout_s=HTTP_TIMEOUT_S):
            if not records:
                first_line_at = time.perf_counter()
            records.append(record)
        return records, first_line_at


# ----------------------------------------------------------------------
# Repetitions.
# ----------------------------------------------------------------------
def local_e2e(args, work: Path) -> Dict:
    from repro.campaign import Campaign, ResultStore

    campaigns = [
        Campaign.from_dict(doc)
        for doc in workloads.campaigns(args.workload, args.seed)
    ]
    for campaign in campaigns:
        campaign.trials()
    path = work / "store"
    store = ResultStore(path)
    setup_s = time.monotonic() - args.spawned_at

    start = time.perf_counter()
    cold = [campaign.run(store=store) for campaign in campaigns]
    cold_s = time.perf_counter() - start
    records = _records(cold)

    label = args.workload
    problems = gate.count_problems(
        records, workloads.expected_transactions, label
    )
    cached_s = []
    for _ in range(CACHED_PASSES):
        # Every cached pass starts from the same heap: the previous
        # pass's store and results are dropped first.
        warm = again = None
        gc.collect()
        start = time.perf_counter()
        warm = ResultStore(path)
        again = [campaign.run(store=warm) for campaign in campaigns]
        cached_s.append(time.perf_counter() - start)
        problems += gate.cached_problems(
            records, _records(again), sum(rs.executed for rs in again), label
        )
    out = {
        "setup_s": setup_s,
        "cold_s": cold_s,
        "cached_s": cached_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "trials": len(records),
        "transactions": _transactions(records),
        "store_bytes": (path / "results.jsonl").stat().st_size,
        "attempted": len(records) * (1 + CACHED_PASSES),
        "failed": _failed(records) * (1 + CACHED_PASSES),
    }
    if args.gate:
        problems += _other_tier_problems(args.workload, records)
        problems += gate.edge_problems(workloads.EDGE_BURST_COUNTS)
    out["problems"] = problems
    return out


def serve_e2e(args, work: Path) -> Dict:
    from repro.campaign import Campaign
    from repro.serve import ServeClient

    docs = workloads.campaigns(args.workload, args.seed)
    planned = [len(Campaign.from_dict(doc).trials()) for doc in docs]
    server = BackgroundServer(work / "serve")
    try:
        client = ServeClient(port=server.port, timeout_s=HTTP_TIMEOUT_S)
        passes = ServePass(client)
        passes.request(client.healthz)
        setup_s = time.monotonic() - args.spawned_at

        cold_s, records, cached_s, problems, _timings = serve_round(
            passes, docs, planned, args.workload, CACHED_PASSES
        )
        store_bytes = (
            work / "serve" / "results" / "results.jsonl"
        ).stat().st_size
    finally:
        server.close()
    if args.gate:
        problems += gate.edge_problems(workloads.EDGE_BURST_COUNTS)
    return {
        "setup_s": setup_s,
        "cold_s": cold_s,
        "cached_s": cached_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "trials": len(records),
        "transactions": _transactions(records),
        "store_bytes": store_bytes,
        "attempted": len(records) * (1 + CACHED_PASSES) + passes.requests,
        "failed": _failed(records) * (1 + CACHED_PASSES)
        + passes.failed_requests,
        "problems": problems + passes.problems,
    }


def serve_round(
    passes: ServePass, docs, planned: List[int], workload: str,
    cached_passes: int,
):
    """A cold pass over the server, then ``cached_passes`` resubmissions;
    returns (cold wall, cold records, cached walls, problems, the cold
    pass's client-side timings)."""
    cold_s, streamed, timings = passes.run(docs)
    problems = []
    for doc, records, n_trials in zip(docs, streamed, planned):
        if len(records) != n_trials:
            problems.append(
                f"{workload}: {doc['name']} streamed {len(records)} of "
                f"{n_trials} records"
            )
        problems += gate.count_problems(
            records, workloads.expected_transactions, workload
        )
    if len(streamed) == 2:
        problems += gate.tier_problems(
            streamed[0], streamed[1], f"{workload} fast vs batch streams"
        )
    records = [r for stream in streamed for r in stream]
    cached_s = []
    for _ in range(cached_passes):
        again = None
        gc.collect()
        wall, again, again_timings = passes.run(docs)
        cached_s.append(wall)
        problems += gate.cached_problems(
            records, [r for stream in again for r in stream],
            again_timings["executed"], f"{workload} resubmitted",
        )
    return cold_s, records, cached_s, problems, timings


def traced(args, work: Path) -> Dict:
    """The per-layer run: same inputs, spans and counters on."""
    import layers
    from repro import obs
    from repro.campaign import Campaign, ResultStore
    from repro.serve import ServeClient

    rec = layers.Recorder()
    layers.install(rec)
    docs = workloads.campaigns(args.workload, args.seed)
    with rec.recording("setup"):
        campaigns = [Campaign.from_dict(doc) for doc in docs]
        planned = [len(campaign.trials()) for campaign in campaigns]
        store = ResultStore(work / "store")
    out: Dict = {}

    # The serve pass runs first, so its pool workers fork from a
    # process whose simulation caches are still cold.
    server = BackgroundServer(work / "serve")
    rec.pool_armed = True
    try:
        client = ServeClient(port=server.port, timeout_s=HTTP_TIMEOUT_S)
        passes = ServePass(client)
        with obs.observe(trace=False, profile=False):
            serve_wall, _, _, problems, timings = serve_round(
                passes, docs, planned, args.workload, 1
            )
            served = passes.request(client.metrics) or {}
        problems += passes.problems
    finally:
        rec.pool_armed = False
        server.close()
    counted = (served.get("metrics") or {}).get("counters") or {}
    out["serve.submit_s"] = timings["submit_s"]
    out["serve.first_line_s"] = timings["first_line_s"]
    out["serve.stream_s"] = timings["stream_s"]
    out["serve.dedupe_hits"] = sum(
        v for k, v in counted.items() if k.startswith("serve.dedupe_hits")
    )
    pool_wall = sum(wall for wall, _, _ in rec.pools)
    busy = sum(b for _, _, b in rec.pools)
    capacity = sum(wall * n for wall, n, _ in rec.pools)
    out["executors.pool_wall_s"] = pool_wall
    out["executors.worker_busy_s"] = busy
    out["executors.pool_efficiency"] = busy / capacity if capacity else 0.0

    counters = {}

    def count(session) -> None:
        for key, value in session.metrics.to_dict()["counters"].items():
            counters[key] = counters.get(key, 0) + value

    with rec.recording("cold"), obs.observe(trace=False,
                                            profile=False) as session:
        start = time.perf_counter()
        cold = [campaign.run(store=store) for campaign in campaigns]
        cold_s = time.perf_counter() - start
    count(session)
    records = _records(cold)
    cold_bytes = list(rec.record_bytes)
    out["store.bytes"] = (work / "store" / "results.jsonl").stat().st_size

    with rec.recording("cached"):
        warm = ResultStore(work / "store")
        again = [campaign.run(store=warm) for campaign in campaigns]

    start = time.perf_counter()
    axis = next(iter(docs[0]["grid"]))
    for rs in cold:
        rs.series(axis, "report.goodput_bps")
        rs.aggregate("report.goodput_bps", agg="mean")
    out["resultset.query_s"] = time.perf_counter() - start

    with rec.recording("cross"), obs.observe(trace=False,
                                             profile=False) as session:
        problems += _other_tier_problems(args.workload, records)
    count(session)

    label = f"{args.workload} traced"
    problems += gate.count_problems(
        records, workloads.expected_transactions, label
    )
    problems += gate.cached_problems(
        records, _records(again), sum(rs.executed for rs in again), label
    )
    problems += gate.edge_problems(workloads.EDGE_BURST_COUNTS)

    metrics, table = layers.breakdown(rec)
    layers.write_spans(rec, args.spans_out)
    out.update(metrics)
    hits = counters.get("batch.template_hits", 0)
    misses = counters.get("batch.template_misses", 0)
    out["batch.template_hits"] = hits
    out["batch.template_misses"] = misses
    out["batch.template_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    out["fast.plan_round_calls"] = counters.get("tlm.plan_round_calls", 0)
    out["report.record_bytes"] = (
        sum(cold_bytes) / len(cold_bytes) if cold_bytes else 0.0
    )
    out["trials"] = len(records)
    out["transactions"] = _transactions(records)
    # The traced counterpart of the untraced repetition's cold pass:
    # the serve pass for random-serve, the local pass otherwise.
    e2e_cold = serve_wall if args.workload == "random-serve" else cold_s
    return {
        "metrics": out,
        "breakdown": table,
        "e2e_cold_s": e2e_cold,
        "attempted": len(records) + passes.requests,
        "failed": _failed(records) + passes.failed_requests,
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("e2e", "traced"), default="e2e")
    parser.add_argument("--gate", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--spans-out", type=Path,
                        help="where a traced repetition writes its spans")
    args = parser.parse_args(argv)
    if args.mode == "traced":
        result = traced(args, args.workdir)
    elif args.workload == "random-serve":
        result = serve_e2e(args, args.workdir)
    else:
        result = local_e2e(args, args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
