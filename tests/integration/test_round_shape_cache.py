"""The process-wide round-shape store, end to end.

Both event-driving tiers resolve rounds through one store of round
shapes keyed on the ring facts the planner reads.  A ring key that
missed a planner input would let a warm store replay a shape planned
on a different ring; these tests run the same documents cold and warm
(in reverse order, tiers interleaved) and require byte-identical
reports, and change the anchor and the runaway watchdog mid-run on a
warm store against the edge engine.

The last class holds the minimized repro of a choreography divergence
from the edge engine that the three-way fuzz found: a sleeping node
posting while another node's burst is in flight.
"""

import pytest

from repro.batch import clear_cache
from repro.campaign.trial import canonical_json
from repro.core import Address
from repro.diffcheck.generators import generate_scenarios
from repro.scenario import Burst, NodeSpec, OneShot, SystemSpec, run
from repro.scenario.workload import workload_from_dict

from tests.integration.test_batch_backend import (
    HOST_FIELDS,
    RECORD_SCENARIOS,
)
from tests.integration.test_fastpath_equivalence import assert_equivalent
from tests.integration.test_fastpath_round_cache import run_phases

SCENARIOS = list(RECORD_SCENARIOS.values()) + [
    (
        SystemSpec.from_dict(doc["system"]),
        workload_from_dict(doc["workload"]),
    )
    for doc in generate_scenarios(30, seed=17, faults_fraction=0.0)
]


def report_bytes(spec, workload, backend):
    doc = run(spec, workload, backend=backend).to_dict()
    return canonical_json(
        {k: v for k, v in doc.items() if k not in HOST_FIELDS}
    )


class TestWarmStoreEqualsCold:
    def test_reports_are_byte_identical_cold_and_warm(self):
        clear_cache()
        cold = {
            (i, backend): report_bytes(spec, workload, backend)
            for i, (spec, workload) in enumerate(SCENARIOS)
            for backend in ("fast", "batch")
        }
        warm = {
            (i, backend): report_bytes(spec, workload, backend)
            for i, (spec, workload) in reversed(list(enumerate(SCENARIOS)))
            for backend in ("batch", "fast")
        }
        assert warm == cold

    @staticmethod
    def named(names):
        mediator, gated, member = names
        spec = SystemSpec(
            name="names",
            nodes=(
                NodeSpec(mediator, short_prefix=0x1, is_mediator=True),
                NodeSpec(gated, short_prefix=0x2, power_gated=True),
                NodeSpec(member, short_prefix=0x3),
            ),
        )
        workload = Burst(
            mediator, Address.short(0x2, 5), b"\x01\x02", count=3
        ) + Burst(member, Address.short(0x2, 5), b"\x03", count=2)
        return spec, workload

    def test_rings_that_differ_only_in_names(self):
        # Shapes carry receiver names, so a ring's names are part of
        # its key: renamed rings must not share report rows.
        renamed = self.named(("cpu", "sensor", "radio"))
        clear_cache()
        cold = {b: report_bytes(*renamed, b) for b in ("fast", "batch")}
        clear_cache()
        for backend in ("fast", "batch"):
            run(*self.named(("m", "a", "b")), backend=backend)
        warm = {b: report_bytes(*renamed, b) for b in ("fast", "batch")}
        assert warm == cold


class TestRingChangesOnAWarmStore:
    SPEC = SystemSpec(
        name="ring-change",
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2, rx_buffer_bytes=4096),
            NodeSpec("b", short_prefix=0x3),
            NodeSpec("c", short_prefix=0x4, power_gated=True),
        ),
    )
    LONG = bytes(range(256)) * 4 + b"\x11" * 76     # 1100 bytes
    # Arbitration between a and b follows the anchor; the sleeping c,
    # posting alone, needs a null round, whose shape the anchor
    # changes; the long message is a runaway until the watchdog is
    # raised.
    CONTEND = (
        [("a", Address.short(0x1, 2), b"\x5a\xa5")] * 3
        + [("b", Address.short(0x1, 2), b"\x5a\xa5")] * 3
    )
    WAKE = [("c", Address.short(0x1, 2), b"\x07")]
    LONG_POSTS = [("m", Address.short(0x2, 1), LONG)] * 2

    def warm(self):
        """Plan the rounds of every ring variant into the store."""
        clear_cache()
        workloads = (
            Burst("a", Address.short(0x1, 2), b"\x5a\xa5", count=3)
            + Burst("b", Address.short(0x1, 2), b"\x5a\xa5", count=3),
            OneShot("c", Address.short(0x1, 2), b"\x07"),
            Burst("m", Address.short(0x2, 1), self.LONG, count=2),
        )
        for spec in (
            self.SPEC.replace(arbitration_anchor="b"),
            self.SPEC.replace(max_message_bytes=2048),
        ):
            for workload in workloads:
                for backend in ("fast", "batch"):
                    run(spec, workload, backend=backend)

    def keep(self, _system):
        return None

    def check(self, phases):
        edge, edge_counts = run_phases(self.SPEC, "edge", phases)
        self.warm()
        fast, counts = run_phases(self.SPEC, "fast", phases)
        assert counts == edge_counts
        assert_equivalent(edge, fast)
        return fast

    def test_anchor_set_mid_run(self):
        anchor = lambda s: s.set_arbitration_anchor("b")  # noqa: E731
        fast = self.check([
            (self.keep, self.WAKE), (self.keep, self.CONTEND),
            (anchor, self.WAKE), (self.keep, self.CONTEND),
        ])
        wakeups = [t for t in fast.transactions if t.tx_node is None]
        # The mediator flags the unanchored null round as a general
        # error; the anchor, not the mediator, drives the anchored one.
        assert [t.general_error for t in wakeups] == [True, False]

    def test_watchdog_raised_mid_run(self):
        raise_limit = lambda s: s.set_max_message_bytes(2048)  # noqa: E731
        fast = self.check([
            (self.keep, self.LONG_POSTS), (raise_limit, self.LONG_POSTS),
        ])
        assert [t.error_reason for t in fast.transactions] == [
            "runaway-message", "runaway-message", "", ""
        ]


class TestPulseWhileAnotherNodeRequests:
    """n3 is power-gated and posts while n2's three-message burst is
    in flight.  When n2's second round ends, n2's re-request reaches
    n3 before n3's settle expires, so n3 is busy observing the next
    round and cannot raise its null pulse: it pulses only after n2's
    last round, and the edge engine runs a General Error wakeup round
    before n3's message — five transactions, not four."""

    SPEC = SystemSpec(
        name="fuzz-132",
        clock_hz=100_000,
        nodes=(
            NodeSpec("m0", short_prefix=0x1, is_mediator=True),
            NodeSpec("n2", short_prefix=0x3),
            NodeSpec("n3", short_prefix=0x4, power_gated=True),
        ),
    )
    WORKLOAD = Burst(
        "n2", Address.short(0x1, 10), bytes.fromhex("a3ca88"), count=3,
        at_s=0.0005,
    ) + OneShot("n3", Address.short(0x1, 15), b"\xe2", at_s=0.001)

    def test_all_tiers_run_the_wakeup_round(self):
        edge = run(self.SPEC, self.WORKLOAD, backend="edge")
        expected = edge.transaction_signatures()
        assert [t.tx_node for t in edge.transactions] == [
            "n2", "n2", "n2", None, "n3"
        ]
        assert edge.transactions[3].error_reason == "no-arbitration-winner"
        for backend in ("fast", "batch"):
            report = run(self.SPEC, self.WORKLOAD, backend=backend)
            assert report.transaction_signatures() == expected, backend
            assert report.power["n3"]["layer_wakeups"] == 1
