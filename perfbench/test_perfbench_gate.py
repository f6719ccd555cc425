"""Self-test of the benchmark's correctness gate and result format.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: The metrics the benchmark is specified to report, with their units.
NAMED_END_TO_END = {
    "setup_s": "s",
    "cold_txn_per_s": "txn/s",
    "cached_rerun_s": "s",
    "peak_rss_mb": "MB",
    "store_bytes_per_trial": "B",
}
NAMED_PER_LAYER = {
    "campaign.plan_s": "s", "campaign.key_s": "s",
    "scenario.decode_s": "s", "scenario.schedule_s": "s",
    "batch.compile_s": "s", "batch.execute_s": "s",
    "batch.materialize_s": "s", "batch.template_hit_ratio": "fraction",
    "batch.template_hits": "count", "batch.template_misses": "count",
    "fast.build_s": "s", "fast.execute_s": "s",
    "fast.plan_round_calls": "count",
    "report.to_dict_s": "s", "report.record_s": "s",
    "report.record_bytes": "B",
    "store.put_s": "s", "store.open_s": "s", "store.get_s": "s",
    "store.bytes": "B",
    "executors.pool_wall_s": "s", "executors.worker_busy_s": "s",
    "executors.pool_efficiency": "fraction",
    "resultset.query_s": "s",
    "serve.submit_s": "s", "serve.first_line_s": "s",
    "serve.stream_s": "s", "serve.dedupe_hits": "count",
    "trial.self_s": "s", "trace.overhead": "fraction",
    "share.store_record": "fraction", "share.execute": "fraction",
    "trials": "count", "transactions": "count",
}


def _records(backend):
    from repro.campaign import Campaign

    doc = workloads.burst_campaign(backend)
    doc["grid"] = {"workload.count": [1, 4]}
    return [result.record for result in Campaign.from_dict(doc).run()]


def test_tiers_agree_on_real_records():
    assert gate.tier_problems(_records("batch"), _records("fast"), "t") == []


def test_one_altered_simulated_field_fails_the_gate():
    batch, fast = _records("batch"), _records("fast")
    fast[1]["report"]["transactions"][2]["clock_cycles"] += 1
    assert gate.tier_problems(batch, fast, "t")


def test_count_and_cached_checks_fail_on_mismatch():
    records = _records("batch")
    assert gate.count_problems(
        records, workloads.expected_transactions, "t"
    ) == []
    short = json.loads(json.dumps(records))
    short[1]["report"]["n_ok"] -= 1
    assert gate.count_problems(short, workloads.expected_transactions, "t")
    assert gate.cached_problems(records, records, 0, "t") == []
    assert gate.cached_problems(records, records, 1, "t")
    assert gate.cached_problems(records, short, 0, "t")


def test_result_carries_every_metric_with_its_unit():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for section, units, named in (
        ("end_to_end", run.END_TO_END, NAMED_END_TO_END),
        ("per_layer", run.PER_LAYER, NAMED_PER_LAYER),
    ):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        assert declared == units
        assert named.items() <= declared.items()
        samples = {name: [1.0, 2.0, 3.0] for name in units}
        out = run.result(samples, units, [], attempted=3, failed=0)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["metrics"] == {
            name: {"value": 2.0, "unit": unit}
            for name, unit in declared.items()
        }
    assert not run.result(samples, units, ["x"], 3, 0)["correct"]


def test_layer_self_times_add_up_to_the_root():
    rec = layers.Recorder()
    rec.pass_name = "cold"
    rec.add("campaign.run", 0, 100)
    rec.add("trial.self", 10, 60)
    rec.add("batch.execute", 20, 30)
    rec.add("store.put", 60, 90)
    timed = layers.self_times(rec.spans)
    assert [self_ns for _span, self_ns in timed] == [20, 40, 10, 30]
    metrics, table = layers.breakdown(rec)
    assert round(sum(table.values()) * 1e9) == 100
    assert round(metrics["trace.cold_wall_s"] * 1e9) == 100
    assert round(metrics["trace.attributed_share"], 9) == 0.8
