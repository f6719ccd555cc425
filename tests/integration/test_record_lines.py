"""Composed record lines are the canonical JSON of their records.

A batch report encodes its ``transactions`` array once per round
template (:meth:`RunReport.transactions_json`), and the serial campaign
path splices that array into the record line
(:func:`repro.campaign.trial.record_line`) instead of encoding the
whole record.  These tests pin the composed bytes to
``canonical_json(record)``: per scenario over the batch round shapes,
and end to end over a stored multi-template campaign that also holds
failure records (which carry no pre-encoded array).
"""

import json

import pytest

import repro.campaign.campaign as campaign_mod
from repro.campaign import (
    Campaign,
    ResultStore,
    Trial,
    canonical_json,
    execute_trial,
    record_line,
    trial_record,
)
from repro.campaign.chaos import Chaos
from repro.core import Address
from repro.scenario import (
    Broadcast,
    Burst,
    NodeSpec,
    RandomTraffic,
    SystemSpec,
    run,
)

from tests.integration.test_batch_backend import RECORD_SCENARIOS


def _trial(spec, workload, backend="batch"):
    return Trial(
        index=0,
        params={},
        spec_doc=spec.to_dict(),
        workload_doc=workload.to_dict(),
        backend=backend,
    )


class TestComposedLine:
    @pytest.mark.parametrize("name", sorted(RECORD_SCENARIOS))
    def test_composed_line_is_canonical_json(self, name):
        spec, workload = RECORD_SCENARIOS[name]
        trial = _trial(spec, workload)
        record, _wall_s, report = execute_trial(trial)
        fragment = report.transactions_json()
        assert fragment is not None
        assert json.loads(fragment) == report.to_dict()["transactions"]
        expected = canonical_json(trial_record(trial, report.to_dict()))
        assert record_line(record, fragment) == expected
        assert canonical_json(record) == expected

    def test_event_loop_reports_have_no_fragment(self):
        spec, workload = RECORD_SCENARIOS["gated_wakeups"]
        record, _wall_s, report = execute_trial(
            _trial(spec, workload, backend="fast")
        )
        assert report.transactions_json() is None
        assert record_line(record) == canonical_json(record)

    def test_empty_round_log_encodes_an_empty_array(self):
        spec, _workload = RECORD_SCENARIOS["broadcast"]
        empty = Burst("m", Address.short(0x2, 5), b"\x01", count=0)
        report = run(spec, empty, backend="batch")
        assert report.to_dict()["transactions"] == []
        assert report.transactions_json() == "[]"


SPEC = SystemSpec(
    name="record-lines",
    clock_hz=400_000.0,
    nodes=(
        NodeSpec("m", short_prefix=0x1, is_mediator=True),
        NodeSpec("a", short_prefix=0x2, power_gated=True),
        NodeSpec("b", short_prefix=0x3, rx_buffer_bytes=4),
        NodeSpec("c", short_prefix=0x4),
    ),
)


def _workload(params):
    shape, n = params["shape"], params["n"]
    if shape == "raise":
        return Chaos(behavior="raise")
    if shape == "burst":
        return Burst(
            "m", Address.short(0x2, 5), bytes(range(n)), count=3 * n,
            gap_s=0.0005,
        ) + Burst("c", Address.short(0x3, 5), bytes(range(2 * n)), count=n)
    if shape == "broadcast":
        return Broadcast("m", channel=0, payload=bytes([n]), priority=True)
    return RandomTraffic(seed=n, count=30, mean_gap_s=0.001,
                         priority_fraction=0.25)


def _campaign():
    return Campaign(
        spec=SPEC,
        workload=_workload,
        grid={"shape": ["burst", "broadcast", "random", "raise"],
              "n": [1, 3, 6]},
        backend="batch",
        name="record-lines",
    )


class TestStoredLines:
    def test_every_stored_line_is_canonical(self, tmp_path, monkeypatch):
        composed = []
        spliced = campaign_mod.record_line

        def spy(record, transactions_json=None):
            composed.append(transactions_json)
            return spliced(record, transactions_json)

        monkeypatch.setattr(campaign_mod, "record_line", spy)
        store = ResultStore(tmp_path / "serial")
        results = _campaign().run(executor="serial", store=store)
        outcomes = [r.record["outcome"] for r in results]
        assert outcomes.count("error") == 3
        # Every successful trial took the composed path; failure
        # records were encoded by the store.
        assert len(composed) == outcomes.count("ok") == 9
        assert all(fragment is not None for fragment in composed)
        # Trials replay several round templates, not just one.
        assert max(
            len({
                canonical_json(dict(row, index=0))
                for row in r.record["report"]["transactions"]
            })
            for r in results if r.record["outcome"] == "ok"
        ) > 2

        lines = store.results_path.read_text().splitlines()
        by_key = {r.record["key"]: r.record for r in results}
        # The three identical failing trials share one key and line.
        assert len(lines) == len(by_key) == 10
        for line in lines:
            decoded = json.loads(line)
            assert line == canonical_json(decoded)
            assert decoded == by_key[decoded["key"]]
        assert store.entries() == lines

    def test_serial_lines_equal_pool_lines(self, tmp_path):
        serial = ResultStore(tmp_path / "serial")
        pool = ResultStore(tmp_path / "pool")
        _campaign().run(executor="serial", store=serial)
        _campaign().run(executor="process", workers=2, store=pool)
        # The pool parent encodes every record itself; the serial path
        # composes batch lines.  The stored bytes agree key for key.
        # (Failure records differ: their traceback digest names the
        # executor's call stack.)
        def ok_lines(store):
            return {
                key: store.line(key) for key in store.keys()
                if store.get(key)["outcome"] == "ok"
            }

        assert len(ok_lines(serial)) == 9
        assert ok_lines(serial) == ok_lines(pool)
