"""Campaign-level benchmark of the MBus reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload burst-batch --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that reports the
per-layer metrics and the tracing overhead.  Every repetition runs in
a fresh process (``rep.py``) and the run repeats until ``--seconds``
are spent, at least ``MIN_REPS`` times (a traced run at least once).
Human-readable lines come first; the last line of standard output is
the JSON result.  The run exits non-zero when a correctness check
fails (after printing the result with ``"correct": false``) and,
without printing a result, when the program cannot be found or a
repetition crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "cold_txn_per_s": "txn/s",
    "cached_rerun_s": "s",
    "peak_rss_mb": "MB",
    "store_bytes_per_trial": "B",
}

_LAYER_SECONDS = (
    "campaign.plan_s", "campaign.key_s", "campaign.run_self_s",
    "scenario.decode_s", "scenario.schedule_s",
    "batch.compile_s", "batch.execute_s", "batch.materialize_s",
    "fast.build_s", "fast.execute_s",
    "report.to_dict_s", "report.record_s",
    "store.put_s", "store.open_s", "store.get_s",
    "executors.pool_wall_s", "executors.worker_busy_s",
    "resultset.query_s",
    "serve.submit_s", "serve.first_line_s", "serve.stream_s",
    "trial.self_s", "trace.cold_wall_s", "trace.untraced_cold_wall_s",
)
_PER_TRIAL = (
    "scenario.decode", "scenario.schedule", "batch.compile",
    "batch.execute", "batch.materialize", "fast.build", "fast.execute",
    "report.to_dict", "report.record", "store.put", "store.get",
    "trial.self",
)

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER: Dict[str, str] = {
    **{name: "s" for name in _LAYER_SECONDS},
    **{f"{layer}.{q}_ms": "ms" for layer in _PER_TRIAL
       for q in ("p50", "p95")},
    "batch.template_hits": "count",
    "batch.template_misses": "count",
    "batch.template_hit_ratio": "fraction",
    "fast.plan_round_calls": "count",
    "report.record_bytes": "B",
    "store.bytes": "B",
    "executors.pool_efficiency": "fraction",
    "serve.dedupe_hits": "count",
    "trials": "count",
    "transactions": "count",
    "share.store_record": "fraction",
    "share.execute": "fraction",
    "trace.attributed_share": "fraction",
    "trace.overhead": "fraction",
}

#: Counts that must repeat exactly from one traced repetition to the
#: next (they depend only on the trial documents).
DETERMINISTIC = (
    "batch.template_hits", "batch.template_misses",
    "fast.plan_round_calls", "report.record_bytes", "store.bytes",
    "serve.dedupe_hits", "trials", "transactions",
)

MIN_REPS = 3
#: Start no repetition this long into a run, and kill one that takes
#: longer than REP_TIMEOUT_S, so a run ends within 180 s.
HARD_STOP_S = 60.0
REP_TIMEOUT_S = 100.0


class RepFailed(Exception):
    pass


def quartiles(values: List[float]):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spans_path(workload: str) -> Path:
    """Where the last traced repetition of ``workload`` leaves its spans."""
    return HERE / "out" / f"spans-{workload}.jsonl"


def run_rep(args, work: Path, mode: str, gate: bool) -> Dict:
    """Run one repetition in a fresh process and parse its result."""
    rep_dir = Path(tempfile.mkdtemp(prefix="rep-", dir=work))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--gate", str(int(gate)),
        "--workdir", str(rep_dir),
    ]
    if mode == "traced":
        command += ["--spans-out", str(spans_path(args.workload))]
    spawned_at = time.monotonic()
    child = subprocess.Popen(
        command + ["--spawned-at", repr(spawned_at)],
        stdout=subprocess.PIPE, env=env, cwd=str(ROOT),
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RepFailed(f"a {mode} repetition timed out")
    finally:
        # Pool workers live in the child's session; make sure none
        # outlives it, then drop its files.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(rep_dir, ignore_errors=True)
    if child.returncode != 0:
        raise RepFailed(
            f"a {mode} repetition exited with code {child.returncode}"
        )
    lines = stdout.decode("utf-8").strip().splitlines()
    return json.loads(lines[-1])


def repeat(args, one_rep, min_reps: int) -> List:
    """Call ``one_rep(index)`` until the time budget is spent."""
    start = time.monotonic()
    results, took = [], []
    while True:
        began = time.monotonic()
        results.append(one_rep(len(results)))
        took.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if elapsed > HARD_STOP_S:
            break
        # Start another repetition only if it should end less than
        # half a repetition past the budget.
        if (len(results) >= min_reps
                and elapsed + statistics.median(took) / 2 > args.seconds):
            break
    return results


def e2e_metrics(reps: List[Dict]) -> Dict[str, List[float]]:
    """Samples of each end-to-end metric, pooled over repetitions."""
    return {
        "setup_s": [r["setup_s"] for r in reps],
        "cold_txn_per_s": [r["transactions"] / r["cold_s"] for r in reps],
        "cached_rerun_s": [s for r in reps for s in r["cached_s"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "store_bytes_per_trial": [
            r["store_bytes"] / r["trials"] for r in reps
        ],
    }


def layer_metrics(pairs: List[Dict]) -> Dict[str, List[float]]:
    """Samples of each per-layer metric over (untraced, traced)
    repetition pairs; the overhead compares the two cold passes."""
    samples: Dict[str, List[float]] = {name: [] for name in PER_LAYER}
    for untraced, traced in pairs:
        values = dict(traced["metrics"])
        values["trace.untraced_cold_wall_s"] = untraced["cold_s"]
        values["trace.overhead"] = (
            traced["e2e_cold_s"] / untraced["cold_s"] - 1.0
        )
        for name in PER_LAYER:
            samples[name].append(float(values[name]))
    return samples


def result(
    samples: Dict[str, List[float]],
    units: Dict[str, str],
    problems: List[str],
    attempted: int,
    failed: int,
) -> Dict:
    """The JSON result line: the median of each metric's samples."""
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": statistics.median(samples[name]),
                   "unit": units[name]}
            for name in units
        },
    }


def describe(samples: Dict[str, List[float]], units: Dict[str, str]) -> None:
    for name, unit in units.items():
        q1, med, q3 = quartiles(samples[name])
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:34s} {med:14.6g} {unit:9s} "
              f"IQR {q1:.6g}..{q3:.6g} ({spread:.1%} of median), "
              f"n={len(samples[name])}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds random-serve's trial documents")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=out))
    try:
        # Compile the program's bytecode before anything is timed.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
            cwd=str(ROOT), check=True, timeout=REP_TIMEOUT_S,
        )
        if args.trace:
            pairs = repeat(args, lambda i: (
                run_rep(args, work, "e2e", gate=False),
                run_rep(args, work, "traced", gate=False),
            ), min_reps=1)
            problems = [p for _, traced in pairs for p in traced["problems"]]
            for name in DETERMINISTIC:
                seen = {pair[1]["metrics"][name] for pair in pairs}
                if len(seen) > 1:
                    problems.append(f"{name} varies between runs: {seen}")
            samples = layer_metrics(pairs)
            units = PER_LAYER
            attempted = sum(t["attempted"] for _, t in pairs)
            failed = sum(t["failed"] for _, t in pairs)
            print(f"{args.workload}: traced run, {len(pairs)} pair(s)")
            print("  spans of the last traced repetition: "
                  f"{spans_path(args.workload).relative_to(ROOT)}")
            print("  cold wall by layer (self time, last traced rep):")
            table = pairs[-1][1]["breakdown"]
            wall = sum(table.values()) or 1.0
            for layer, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
                print(f"    {layer:24s} {seconds:10.4f} s "
                      f"{seconds / wall:7.1%}")
        else:
            reps = repeat(args, lambda i: run_rep(
                args, work, "e2e", gate=(i == 0)
            ), min_reps=MIN_REPS)
            problems = [p for r in reps for p in r["problems"]]
            samples = e2e_metrics(reps)
            units = END_TO_END
            attempted = sum(r["attempted"] for r in reps)
            failed = sum(r["failed"] for r in reps)
            print(f"{args.workload}: {len(reps)} repetition(s)")
    except (RepFailed, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            out.rmdir()
        except OSError:
            pass

    describe(samples, units)
    print(f"  {'error_rate':34s} {failed / attempted:14.6g} fraction  "
          f"({failed} failed of {attempted} attempted)")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps(result(samples, units, problems, attempted, failed)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
