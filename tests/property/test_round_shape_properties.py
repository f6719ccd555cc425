"""A replayed round shape plus its overlay is the fresh plan.

Both event-driving tiers resolve a round through
:class:`repro.core.round_shape.ShapeCache`: they build the round's
shape key, replay the cached :class:`RoundShape` on a hit and apply
the round's own message as an overlay (delivered slice, stream edges).
Each case below plans a round fresh with :func:`plan_round`, finds the
shape another message with the same key planned, and checks the
replay equals the fresh plan on every field.  Payloads are random and
cover every length from 0 to 64 bytes.
"""

import random

import pytest

from repro.core import constants
from repro.core.addresses import Address
from repro.core.messages import Message
from repro.core.round_shape import RoundShape, ShapeCache
from repro.core.tlm_engine import (
    NodeRoundState,
    RingTopology,
    RoundContext,
    RxDelivery,
    TLMNode,
    TransactionPlan,
    plan_round,
    resolve_arbitration,
    round_layout,
    stream_bit,
)

LENGTHS = range(0, 65)
#: Message pairs drawn per payload length and case.
PAIRS = 3


def replay(shape: RoundShape, message) -> TransactionPlan:
    """The plan a tier realises from ``shape`` and its overlay."""
    payload = b"" if message is None else shape.payload(message)
    edges = shape.edges(message)
    return TransactionPlan(
        kind="wakeup" if shape.winner is None else "message",
        end_ps=shape.end_ps,
        clock_cycles=shape.clock_cycles,
        control_cycles=shape.control_cycles,
        control=shape.control,
        general_error=shape.general_error,
        error_reason=shape.error_reason,
        winner=shape.winner,
        message=message,
        tx_control=shape.tx_control,
        tx_success=shape.tx_success,
        tx_bytes_sent=shape.tx_bytes_sent,
        rx=[
            RxDelivery(pos, name, control, payload, delivered, at)
            for pos, name, control, delivered, at in shape.rx
        ],
        bus_wake_at=dict(shape.bus_wake),
        layer_wake_at={pos: (at, why) for pos, at, why in shape.layer_wake},
        node_end_at=dict(enumerate(shape.node_end)),
        wire_activity={
            q: count + edges for q, count in enumerate(shape.wire)
        },
    )


def ring(members, rx_buffers=None, channels=None):
    """A mediator (short prefix 0x1) followed by ``members``, each a
    ``(short_prefix, full_prefix)`` pair."""
    nodes = [(0x1, None)] + list(members)
    rx_buffers = rx_buffers or {}
    channels = channels or {}
    timing = constants.MBusTiming(clock_hz=400_000)
    return RingTopology(
        [
            TLMNode(
                name=f"n{pos}",
                position=pos,
                short_prefix=short,
                full_prefix=full,
                broadcast_channels=frozenset(channels.get(pos, {0})),
                rx_buffer_bytes=rx_buffers.get(pos, 1024),
                ack_policy=None,
                is_mediator=pos == 0,
                power_gated=pos != 0,
                auto_sleep=False,
                forward_delay_ps=timing.node_delay_ps,
            )
            for pos, (short, full) in enumerate(nodes)
        ],
        timing,
    )


SHORT_RING = ring(
    [(0x2, None), (0x3, None), (0x4, None)], rx_buffers={2: 8, 3: 40}
)
FULL_RING = ring(
    [(None, 0xAB001), (None, 0xAB002), (0x5, None)], rx_buffers={1: 12}
)
BROADCAST_RING = ring(
    [(0x2, None), (0x3, None), (0x4, None)],
    channels={0: {0, 1}, 1: {0, 2}, 2: {1, 2, 3}, 3: {3}},
)


def short_dest(rng, topo):
    prefix = rng.choice(
        [n.short_prefix for n in topo.nodes if n.short_prefix is not None]
    )
    return Address.short(prefix, rng.randrange(16))


def full_dest(rng, topo):
    prefix = rng.choice(
        [n.full_prefix for n in topo.nodes if n.full_prefix is not None]
    )
    return Address.full(prefix, rng.randrange(16))


def broadcast_dest(rng, _topo):
    return Address.broadcast(rng.randrange(4))


def draw_states(rng, topo, power):
    """Non-default (pos, bus_on, layer_on, pending) states and pulsers,
    in key order, and the planner's per-node states."""
    states, pulsers = [], []
    if power:
        for pos in range(1, topo.n):
            bus_on, layer_on = rng.choice(
                [(True, True), (True, True), (False, False), (True, False)]
            )
            pending = not (bus_on and layer_on) and rng.random() < 0.6
            if pending and rng.random() < 0.5:
                pulsers.append(pos)
            if pending or not (bus_on and layer_on):
                states.append((pos, bus_on, layer_on, pending))
    round_states = {
        pos: NodeRoundState(True, True, False, pos in pulsers)
        for pos in range(topo.n)
    }
    for pos, bus_on, layer_on, pending in states:
        round_states[pos] = NodeRoundState(
            bus_on, layer_on, pending, pos in pulsers
        )
    return tuple(states), tuple(pulsers), round_states


def awake(topo, states, pulsers):
    asleep = {pos for pos, bus, layer, _ in states if not (bus and layer)}
    return [
        pos for pos in range(topo.n)
        if pos not in asleep and pos not in pulsers
    ]


def with_last_bit(rng, message, index, bit):
    """``message`` with a random payload of the same length whose
    stream bit ``index`` is ``bit`` (the FU-ID's low bit when
    ``index`` falls in the address)."""
    addr_bits = message.dest.n_bits
    payload = bytearray(rng.randbytes(len(message.payload)))
    dest = message.dest
    if index >= addr_bits:
        j = index - addr_bits
        mask = 1 << (7 - (j & 7))
        payload[j >> 3] = (payload[j >> 3] & ~mask) | (mask if bit else 0)
    elif not dest.is_broadcast:
        fu_id = (rng.randrange(16) & ~1) | bit
        dest = Address(
            fu_id=fu_id,
            short_prefix=dest.short_prefix,
            full_prefix=dest.full_prefix,
        )
    return Message(dest, bytes(payload), priority=message.priority)


def fresh(topo, requests, round_states, anchor, max_bytes):
    return plan_round(RoundContext(
        topology=topo,
        requests=requests,
        states=round_states,
        anchor_pos=anchor,
        max_message_bytes=max_bytes,
    ))


def check_pairs(
    topo, make_dest, *, seed, anchor=None, max_bytes=None, power=False,
    mediator_wins=False,
):
    """For every payload length, plan a round fresh, then plan a second
    round whose message differs in payload (and in the FU-ID where the
    destination class leaves it out) but keeps the shape key; the
    second round must hit the first's shape and replay it exactly."""
    rng = random.Random(seed)
    max_bytes = max_bytes or constants.MIN_MAX_MESSAGE_BYTES
    cache = ShapeCache(topo, anchor, max_bytes)
    hits = 0
    kinds = set()
    for n_bytes in LENGTHS:
        for _ in range(PAIRS):
            states, pulsers, round_states = draw_states(rng, topo, power)
            senders = awake(topo, states, pulsers)
            winner_pos = 0 if mediator_wins else rng.choice(senders)
            first = Message(make_dest(rng, topo), rng.randbytes(n_bytes))
            requests = {winner_pos: first}
            # Losing requesters: anyone awake the winner still beats.
            for pos in senders:
                if pos == winner_pos or rng.random() < 0.5:
                    continue
                trial = dict(requests)
                trial[pos] = Message(
                    short_dest(rng, SHORT_RING), b"\x01",
                    priority=rng.random() < 0.3,
                )
                if resolve_arbitration(topo.n, trial, anchor) == winner_pos:
                    requests = trial
            winner = resolve_arbitration(topo.n, requests, anchor)
            assert winner == winner_pos
            key = cache.key(winner, first, states, pulsers)
            shape = cache.get(key) or cache.add(key, first)
            # The shape stores nothing the first round's payload decides
            # beyond its key: replaying it on the first message is the
            # fresh plan too.
            planned = fresh(topo, requests, round_states, anchor, max_bytes)
            assert replay(shape, first) == planned

            index = round_layout(
                topo, winner, first.dest, n_bytes, max_bytes
            ).last_index
            bit = 0 if index < 0 else stream_bit(first, index)
            second = with_last_bit(
                rng, first, max(index, 0), bit
            )
            assert cache.key(winner, second, states, pulsers) == key
            hit = cache.get(key)
            assert hit is shape
            planned = fresh(
                topo, {**requests, winner: second}, round_states, anchor,
                max_bytes,
            )
            assert replay(hit, second) == planned
            hits += 1
            kinds.add(planned.error_reason or planned.control.name)
    assert hits == len(LENGTHS) * PAIRS
    return kinds


class TestShapeReplayEqualsFreshPlan:
    def test_short_addresses_with_rx_buffer_aborts(self):
        kinds = check_pairs(SHORT_RING, short_dest, seed=1)
        assert "RX_ABORT" in kinds and "EOM_ACK" in kinds

    def test_full_addresses(self):
        kinds = check_pairs(FULL_RING, full_dest, seed=2)
        assert "RX_ABORT" in kinds

    def test_broadcast_on_every_channel(self):
        check_pairs(BROADCAST_RING, broadcast_dest, seed=3)

    @pytest.mark.parametrize("max_bytes", range(1, 9))
    def test_runaway_watchdog(self, max_bytes):
        kinds = check_pairs(
            SHORT_RING, short_dest, seed=10 + max_bytes,
            max_bytes=max_bytes,
        )
        assert "runaway-message" in kinds

    def test_mediator_winner(self):
        check_pairs(SHORT_RING, short_dest, seed=4, mediator_wins=True)

    def test_anchored_ring(self):
        check_pairs(SHORT_RING, short_dest, seed=5, anchor=2)

    @pytest.mark.parametrize("dest", [short_dest, broadcast_dest])
    def test_gated_pending_and_pulser_states(self, dest):
        check_pairs(BROADCAST_RING, dest, seed=6, power=True)

    def test_null_round(self):
        rng = random.Random(7)
        cache = ShapeCache(SHORT_RING, None, 1024)
        for _ in range(20):
            states, pulsers, round_states = draw_states(
                rng, SHORT_RING, power=True
            )
            key = cache.key(None, None, states, pulsers)
            shape = cache.get(key) or cache.add(key, None)
            planned = fresh(SHORT_RING, {}, round_states, None, 1024)
            assert replay(shape, None) == planned
