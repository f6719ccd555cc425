"""Tier-3 batch backend integration: three-way equivalence and policy.

The acceptance bar for the compiled tier: ``backend="batch"`` must
produce byte-identical transaction signatures, delivery sets and wake
counts against both event-loop backends for every scenario shape in
``test_scenario_runner.SHAPES``, survive a 60-scenario fixed-seed
three-way fuzz with zero divergence, refuse the capabilities it does
not implement (setup hooks, fault injection, tracing) with clear
errors, and slot into :mod:`repro.campaign` unchanged.
"""

import dataclasses

import pytest

import repro.batch
from repro.batch import cache_stats, clear_cache
from repro.campaign import canonical_json
from repro.core import Address
from repro.core.errors import BusLockedError, ConfigurationError
from repro.diffcheck import generate_scenarios
from repro.scenario import (
    Broadcast,
    Burst,
    Interrupt,
    NodeSpec,
    OneShot,
    RandomTraffic,
    SystemSpec,
    run,
)
from repro.scenario.workload import workload_from_dict

from tests.integration.test_scenario_runner import SHAPES


def run_matrix(spec, workload, **kwargs):
    return {
        backend: run(spec, workload, backend=backend, **kwargs)
        for backend in ("edge", "fast", "batch")
    }


class TestThreeWayEquivalence:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_identical_results_across_all_tiers(self, shape):
        spec, workload = SHAPES[shape]
        reports = run_matrix(spec, workload)
        edge = reports["edge"]
        assert edge.n_transactions > 0
        for backend in ("fast", "batch"):
            other = reports[backend]
            assert (
                edge.transaction_signatures()
                == other.transaction_signatures()
            ), backend
            assert edge.delivery_set() == other.delivery_set(), backend
            for node in spec.node_names:
                for counter in ("bus_wakeups", "layer_wakeups"):
                    assert (
                        edge.power[node][counter]
                        == other.power[node][counter]
                    ), (backend, node, counter)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_batch_matches_fast_exactly(self, shape):
        """Beyond the cross-tier contract, batch replays the fast
        path's event loop perfectly: same wire totals, same simulated
        end time, same event count."""
        spec, workload = SHAPES[shape]
        fast = run(spec, workload, backend="fast")
        batch = run(spec, workload, backend="batch")
        assert batch.wire_activity == fast.wire_activity
        assert batch.sim_time_s == fast.sim_time_s
        assert batch.events_processed == fast.events_processed
        assert batch.power == fast.power

    def test_timeout_semantics_match_fast(self):
        spec, workload = SHAPES["burst"]
        # A timeout far too short to drain the burst must lock the
        # bus identically on both tiers.
        with pytest.raises(BusLockedError):
            run(spec, workload, backend="fast", timeout_s=1e-9)
        with pytest.raises(BusLockedError):
            run(spec, workload, backend="batch", timeout_s=1e-9)


class TestBatchReport:
    def test_report_shape(self):
        spec, workload = SHAPES["burst"]
        report = run(spec, workload, backend="batch")
        assert report.backend == "batch"
        # No live objects exist on the compiled tier.
        assert report.system is None
        assert report.faults is None
        assert report.reliability is None
        doc = report.to_dict()
        assert doc["backend"] == "batch"
        assert doc["wall_throughput_tps"] == report.wall_throughput_tps
        assert report.wall_throughput_tps > 0
        assert "txn/s wall" in report.summary()

    def test_wall_throughput_guard_on_zero_wall(self):
        spec, workload = SHAPES["one_shot"]
        report = run(spec, workload, backend="batch")
        report.wall_s = 0.0
        assert report.wall_throughput_tps == 0.0


def _spec(*members, **kwargs):
    return SystemSpec(
        name="records",
        nodes=(NodeSpec("m", short_prefix=0x1, is_mediator=True),) + members,
        **kwargs,
    )


#: Round shapes the batch serialiser must reproduce field for field:
#: gated wakeups, interrupts, broadcasts, receiver-buffer aborts, the
#: runaway watchdog and seeded random traffic, plus the diffcheck
#: generator's fault-free scenarios.
RECORD_SCENARIOS = {
    "gated_wakeups": (
        _spec(
            NodeSpec("a", short_prefix=0x2, power_gated=True),
            NodeSpec("b", short_prefix=0x3, power_gated=True),
        ),
        Burst("m", Address.short(0x2, 5), bytes(range(8)), count=12,
              gap_s=0.001)
        + Burst("b", Address.short(0x1, 5), b"\x07", count=3),
    ),
    "interrupts": (
        _spec(NodeSpec("a", short_prefix=0x2, power_gated=True)),
        Interrupt("a", at_s=0.001)
        + OneShot("a", Address.short(0x1, 5), b"\x99", at_s=0.002),
    ),
    "broadcast": (
        _spec(
            NodeSpec("a", short_prefix=0x2),
            NodeSpec("b", short_prefix=0x3),
        ),
        Broadcast("m", channel=0, payload=b"\xAA\xBB", priority=True),
    ),
    "rx_buffer_abort": (
        _spec(
            NodeSpec("a", short_prefix=0x2),
            NodeSpec("b", short_prefix=0x3, rx_buffer_bytes=4),
        ),
        Burst("a", Address.short(0x3, 5), bytes(range(10)), count=2),
    ),
    "runaway": (
        _spec(
            NodeSpec("a", short_prefix=0x2),
            NodeSpec("b", short_prefix=0x3, rx_buffer_bytes=4096),
            max_message_bytes=1024,
        ),
        OneShot("a", Address.short(0x3, 5), bytes(1100)),
    ),
    "seeded_random": (
        _spec(*(
            NodeSpec(name, short_prefix=prefix, power_gated=prefix % 2 == 0)
            for name, prefix in (("a", 2), ("b", 3), ("c", 4))
        )),
        RandomTraffic(seed=11, count=40, mean_gap_s=0.001,
                      priority_fraction=0.25),
    ),
}
for _scenario in generate_scenarios(24, seed=5, faults_fraction=0.0):
    RECORD_SCENARIOS[f"fuzz_{_scenario['seed']}"] = (
        SystemSpec.from_dict(_scenario["system"]),
        workload_from_dict(_scenario["workload"]),
    )

#: ``to_dict()`` fields that name the tier or measure the host.
HOST_FIELDS = ("backend", "wall_s", "wall_throughput_tps")


def _tier_free(doc):
    return canonical_json(
        {k: v for k, v in doc.items() if k not in HOST_FIELDS}
    )


class TestBatchRecords:
    """A batch report serialises straight from its round log, to the
    same bytes the fast tier produces from its transaction objects."""

    @pytest.mark.parametrize("name", sorted(RECORD_SCENARIOS))
    def test_to_dict_matches_fast_byte_for_byte(self, name):
        spec, workload = RECORD_SCENARIOS[name]
        fast = run(spec, workload, backend="fast")
        batch = run(spec, workload, backend="batch")
        assert fast.n_transactions > 0
        assert _tier_free(batch.to_dict()) == _tier_free(fast.to_dict())

    def test_scenarios_cover_the_named_round_shapes(self):
        reasons = set()
        for name in ("rx_buffer_abort", "runaway"):
            spec, workload = RECORD_SCENARIOS[name]
            doc = run(spec, workload, backend="batch").to_dict()
            reasons |= {
                (t["control"], t["error_reason"]) for t in doc["transactions"]
            }
        assert ("RX_ABORT", "") in reasons
        assert any(reason == "runaway-message" for _, reason in reasons)

    def test_to_dict_never_materializes(self, monkeypatch):
        calls = []
        eager = repro.batch.materialize

        def spy(csys, result):
            calls.append(result)
            return eager(csys, result)

        monkeypatch.setattr(repro.batch, "materialize", spy)
        spec, workload = RECORD_SCENARIOS["gated_wakeups"]
        report = run(spec, workload, backend="batch")
        first = report.to_dict()
        assert calls == []
        # Built once, on first access, equal to the eager list.
        transactions = report.transactions
        assert len(calls) == 1
        assert transactions == eager(*report.batch)
        assert report.transactions is transactions
        assert len(calls) == 1
        # The objects agree with the documents serialised without them.
        assert report.to_dict() == first
        assert report.n_ok == first["n_ok"]
        assert report.energy_pj() == first["energy_pj"]

    def test_lazy_report_equals_an_eager_one(self):
        spec, workload = RECORD_SCENARIOS["seeded_random"]
        report = run(spec, workload, backend="batch")
        eager = dataclasses.replace(
            report, transactions=repro.batch.materialize(*report.batch)
        )
        assert report == eager
        assert repr(report) == repr(eager)

    def test_documents_do_not_share_state(self):
        # Every round of a plain burst replays one shape.
        spec = _spec(NodeSpec("a", short_prefix=0x2))
        workload = Burst("m", Address.short(0x2, 5), b"\x01", count=4)
        report = run(spec, workload, backend="batch")
        _csys, result = report.batch
        assert len({id(shape) for _t0, shape, _ref in result.round_log}) == 1
        doc = report.to_dict()
        first, second = doc["transactions"][:2]
        assert first["rx_nodes"] == second["rx_nodes"] == ["a"]
        first["rx_nodes"].append("intruder")
        assert "intruder" not in second["rx_nodes"]
        assert [t["index"] for t in doc["transactions"]] == list(
            range(doc["n_transactions"])
        )


class TestBatchPolicy:
    def test_setup_hooks_are_refused(self):
        spec, workload = SHAPES["one_shot"]
        with pytest.raises(ConfigurationError, match="setup"):
            run(
                spec, workload, backend="batch",
                setup=lambda system: None,
            )

    def test_faults_are_refused_even_empty(self):
        from repro.faults.primitives import normalize_faults

        spec, workload = SHAPES["one_shot"]
        with pytest.raises(ConfigurationError, match="batch"):
            run(
                spec, workload, backend="batch",
                faults=normalize_faults(()),
            )

    def test_trace_is_refused(self):
        spec, workload = SHAPES["one_shot"]
        with pytest.raises(ConfigurationError, match="trac"):
            run(spec, workload, backend="batch", trace=True)


class TestBatchCampaign:
    def test_campaign_over_batch_backend(self):
        from repro.campaign import Campaign

        spec, workload = SHAPES["burst"]
        clear_cache()
        results = Campaign(
            spec, workload, grid={"clock_hz": [100e3, 400e3]},
            backend="batch",
        ).run()
        assert [r.params["clock_hz"] for r in results] == [100e3, 400e3]
        assert all(r.report["backend"] == "batch" for r in results)
        # Wall-clock noise never enters the content-addressed record.
        assert all(
            "wall_s" not in r.report
            and "wall_throughput_tps" not in r.report
            for r in results
        )

    def test_campaign_matches_fast_records(self):
        from repro.campaign import Campaign

        spec, workload = SHAPES["seeded_random"]
        grid = {"clock_hz": [100e3, 400e3]}
        fast = Campaign(spec, workload, grid=grid, backend="fast").run()
        batch = Campaign(spec, workload, grid=grid, backend="batch").run()
        for f, b in zip(fast, batch):
            for field in (
                "transactions", "power", "wire_activity", "sim_time_s",
            ):
                assert f.report[field] == b.report[field], field

    def test_spec_compiles_once_per_campaign(self):
        from repro.campaign import Campaign

        spec, workload = SHAPES["burst"]
        clear_cache()
        Campaign(
            spec, workload,
            grid={"workload.count": [2, 3, 4]},
            backend="batch",
        ).run()
        stats = cache_stats()
        # One topology, three trials: one miss, the rest cache hits —
        # and the warm round shapes carry across trials.
        assert stats["misses"] == 1
        assert stats["hits"] >= 2
        assert stats["shapes"] > 0


class TestTemplateReuse:
    def test_repeated_rounds_share_templates(self):
        spec = SystemSpec(
            name="repeat",
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("a", short_prefix=0x2, power_gated=True),
            ),
        )
        clear_cache()
        run(
            spec,
            Burst("m", Address.short(0x2, 5), b"\xAB", count=50),
            backend="batch",
        )
        # 50 identical transactions cannot need anywhere near 50
        # distinct round shapes.
        assert 0 < cache_stats()["shapes"] < 10


class TestThreeWayFuzz:
    def test_sixty_scenarios_zero_divergence(self):
        from repro.diffcheck import fuzz

        report = fuzz(
            count=60,
            seed=1,
            faults_fraction=0.0,
            repro_dir=None,
            minimize=False,
            invariants=False,
            backends=("edge", "fast", "batch"),
        )
        assert report.n_scenarios == 60
        assert report.ok, report.summary()
        assert report.to_dict()["backends"] == ["edge", "fast", "batch"]


class TestOneShotStillWorks:
    def test_minimal_scenario(self):
        report = run(
            SystemSpec(
                name="pair",
                nodes=(
                    NodeSpec("m", short_prefix=0x1, is_mediator=True),
                    NodeSpec("a", short_prefix=0x2),
                ),
            ),
            OneShot("m", Address.short(0x2, 5), b"\x2A"),
            backend="batch",
        )
        assert report.n_ok == 1
        assert report.deliveries == [("a", b"\x2A")]
