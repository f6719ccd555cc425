"""Fast-path round cache: the edges where a reused plan would be wrong.

The fast backend plans a round relative to its start and replays its
shape whenever the same shape key (winner, destination class, payload
length, last driven bit, non-default node states, pulsers) recurs on
an equal ring.  Each scenario below breaks one assumption a careless
cache would make — a stateful ``ack_policy``, an arbitration anchor or
runaway watchdog changed between bursts, equal but distinct message
objects, mutable payloads — and is checked against the edge engine
(the golden reference) and the batch tier (timing-free
per-transaction view).
"""

from repro.batch import clear_cache
from repro.core import Address, ControlCode, MBusSystem, Message
from repro.obs import observe
from repro.scenario import Burst, NodeSpec, SystemSpec, run

from tests.integration.test_fastpath_equivalence import assert_equivalent

PAYLOAD = b"\x5a\xa5\x01\x02"


def view(txn):
    """A transaction without its absolute times or index."""
    return (
        txn.ok,
        txn.control,
        txn.tx_node,
        None if txn.message is None else bytes(txn.message.payload),
        txn.clock_cycles,
        txn.control_cycles,
        txn.general_error,
        txn.error_reason,
        tuple(sorted(txn.rx_nodes)),
        txn.duration_ps,
    )


def run_phases(spec, mode, phases):
    """Build ``spec`` on ``mode`` and run each ``(configure, posts)``
    phase to idle on the same system; return the system and the number
    of transactions each phase produced."""
    system = spec.build(mode=mode)
    counts = []
    for configure, posts in phases:
        configure(system)
        before = len(system.transactions)
        for source, dest, payload in posts:
            system.post(source, dest, payload)
        system.run_until_idle(timeout_s=10.0)
        counts.append(len(system.transactions) - before)
    return system, counts


def assert_phases_match_batch(fast, counts, batch_runs):
    """Phase ``i`` of the fast run equals a fresh batch run of
    ``batch_runs[i]`` (a ``(spec, workload)`` pair)."""
    start = 0
    for count, (spec, workload) in zip(counts, batch_runs):
        batch = run(spec, workload, backend="batch")
        got = [view(t) for t in fast.transactions[start:start + count]]
        assert got == [view(t) for t in batch.transactions]
        start += count
    assert start == len(fast.transactions)


def keep(_system):
    return None


class TestAckPolicyBypassesCache:
    """A plan that calls an ack_policy depends on the callable's
    state, so rounds that look alike must still be planned again."""

    N = 6

    @staticmethod
    def nak_every_other():
        calls = []

        def policy(_payload):
            calls.append(None)
            return len(calls) % 2 == 1      # ACK, NAK, ACK, ...

        return policy

    def build_system(self, mode):
        system = MBusSystem(mode=mode)
        system.add_mediator_node("m", short_prefix=0x1)
        system.add_node(
            "a", short_prefix=0x2, ack_policy=self.nak_every_other()
        )
        system.build()
        for _ in range(self.N):
            system.post("m", Address.short(0x2, 3), PAYLOAD)
        system.run_until_idle(timeout_s=10.0)
        return system

    def test_alternating_naks_match_edge_and_batch(self):
        edge = self.build_system("edge")
        fast = self.build_system("fast")
        assert_equivalent(edge, fast)
        assert [t.control for t in fast.transactions] == [
            ControlCode.EOM_ACK if i % 2 == 0 else ControlCode.EOM_NAK
            for i in range(self.N)
        ]
        # Batch has no ack_policy; a NAK changes only the control code
        # and the delivery, so every other field is the ACKing burst's.
        spec = SystemSpec(
            name="ack",
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("a", short_prefix=0x2),
            ),
        )
        batch = run(
            spec,
            Burst("m", Address.short(0x2, 3), PAYLOAD, count=self.N),
            backend="batch",
        )

        def shape(txn):
            return view(txn)[2:8] + view(txn)[9:]

        assert [shape(t) for t in fast.transactions] == [
            shape(t) for t in batch.transactions
        ]


class TestAnchorChangeBetweenBursts:
    SPEC = SystemSpec(
        name="anchor",
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2),
            NodeSpec("b", short_prefix=0x3),
        ),
    )
    N = 3
    POSTS = [("a", Address.short(0x1, 2), PAYLOAD)] * N + [
        ("b", Address.short(0x1, 2), PAYLOAD)
    ] * N

    def phases(self):
        return [
            (keep, self.POSTS),
            (lambda s: s.set_arbitration_anchor("b"), self.POSTS),
        ]

    def test_second_burst_follows_the_new_anchor(self):
        edge, _ = run_phases(self.SPEC, "edge", self.phases())
        fast, counts = run_phases(self.SPEC, "fast", self.phases())
        assert_equivalent(edge, fast)
        # The first round of each burst has the same key; only the
        # anchor decides who wins it.
        first = [fast.transactions[0], fast.transactions[counts[0]]]
        assert [t.tx_node for t in first] == ["a", "b"]

        workload = Burst(
            "a", Address.short(0x1, 2), PAYLOAD, count=self.N
        ) + Burst("b", Address.short(0x1, 2), PAYLOAD, count=self.N)
        assert_phases_match_batch(fast, counts, [
            (self.SPEC, workload),
            (self.SPEC.replace(arbitration_anchor="b"), workload),
        ])


class TestWatchdogChangeMidRun:
    SPEC = SystemSpec(
        name="watchdog",
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2, rx_buffer_bytes=4096),
        ),
    )
    LONG = bytes(range(256)) * 4 + b"\x11" * 76     # 1100 bytes
    POSTS = [("m", Address.short(0x2, 1), LONG)] * 2

    def phases(self):
        return [
            (keep, self.POSTS),
            (lambda s: s.set_max_message_bytes(2048), self.POSTS),
        ]

    def test_raised_watchdog_lets_the_same_message_through(self):
        edge, _ = run_phases(self.SPEC, "edge", self.phases())
        fast, counts = run_phases(self.SPEC, "fast", self.phases())
        assert_equivalent(edge, fast)
        assert counts == [2, 2]
        assert [t.error_reason for t in fast.transactions] == [
            "runaway-message", "runaway-message", "", ""
        ]
        assert [t.ok for t in fast.transactions[2:]] == [True, True]

        workload = Burst("m", Address.short(0x2, 1), self.LONG, count=2)
        assert_phases_match_batch(fast, counts, [
            (self.SPEC, workload),
            (self.SPEC.replace(max_message_bytes=2048), workload),
        ])


class TestEqualDistinctMessages:
    SPEC = SystemSpec(
        name="distinct",
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2),
            NodeSpec("b", short_prefix=0x3),
        ),
    )
    N = 8

    def drive(self, mode):
        system = self.SPEC.build(mode=mode)
        posted = {"a": [], "b": []}
        for name in posted:
            for _ in range(self.N):
                # Equal in value, distinct in identity: every round of
                # the burst shares one cached plan.
                message = Message(Address.short(0x1, 4), bytes(PAYLOAD))
                posted[name].append(message)
                system.node(name).post(message)
        system.run_until_idle(timeout_s=10.0)
        return system, posted

    def test_outcomes_carry_each_posted_object(self):
        edge, _ = self.drive("edge")
        fast, posted = self.drive("fast")
        assert_equivalent(edge, fast)
        assert fast.is_idle
        for name, messages in posted.items():
            results = fast.node(name).results
            assert len(results) == self.N
            for outcome, message in zip(results, messages):
                assert outcome.message is message
                assert outcome.success

        workload = Burst(
            "a", Address.short(0x1, 4), PAYLOAD, count=self.N
        ) + Burst("b", Address.short(0x1, 4), PAYLOAD, count=self.N)
        assert_phases_match_batch(
            fast, [len(fast.transactions)], [(self.SPEC, workload)]
        )

    def test_bytearray_payloads_are_planned_every_round(self):
        """A round shape never hashes the payload, so rounds carrying a
        mutable bytearray payload replay a shape like any other and
        still match edge and batch."""

        def drive(mode):
            system = self.SPEC.build(mode=mode)
            for _ in range(3):
                system.post("a", Address.short(0x1, 4), bytearray(PAYLOAD))
            system.run_until_idle(timeout_s=10.0)
            return system

        edge = drive("edge")
        clear_cache()
        with observe() as session:
            fast = drive("fast")
        assert_equivalent(edge, fast)
        counters = session.metrics.snapshot()["counters"]
        assert counters["fastpath.round_cache_misses"] == 1
        assert counters["fastpath.round_cache_hits"] == 2

        workload = Burst("a", Address.short(0x1, 4), PAYLOAD, count=3)
        assert_phases_match_batch(fast, [3], [(self.SPEC, workload)])
