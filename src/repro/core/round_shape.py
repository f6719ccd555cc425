"""Round shapes: planned bus rounds with the payload taken out.

MBus rounds are clock-driven (Sections 4.3-4.9).  Once arbitration
has picked a winner, a round's timing depends on the winner, the
destination's receiver set, the payload length, the last bit the
transmitter drives and the nodes' power states — not on the payload
bytes.  A :class:`RoundShape` is a
:class:`~repro.core.tlm_engine.TransactionPlan` without its payload,
keyed by

    (winner, destination class, payload length, last driven bit,
     sorted non-default (pos, bus_on, layer_on, pending) states,
     sorted pulser positions)

Arbitration is resolved before the key is built, so losing requesters
never enter it.  The destination class is the prefix and the address
width; the FU-ID joins it only for a broadcast, where it names the
channel.  The last driven bit is the stream's last bit at end of
message and the bit at the layout's last-driven index on an rx-buffer
abort or a runaway; it is 0 when the mediator transmits.  A null
round's key is ``(None, None, 0, 0, states, pulsers)``.

A round's own data is a small overlay applied at replay: the message,
the delivered slice ``payload[:data_bytes]`` (:meth:`RoundShape.payload`)
and the count of stream transitions (:meth:`RoundShape.edges`), which
adds the same amount to every node's wire activity.

The fast path and the batch executor both resolve rounds through
:func:`shape_cache`: one bounded, process-wide store of
:class:`ShapeCache` objects keyed on the ring facts the planner reads
(:attr:`~repro.core.tlm_engine.RingTopology.facts`, the arbitration
anchor and the runaway watchdog), so every trial on an equal ring, on
either tier, starts with the shapes earlier trials planned.  A ring
with an ``ack_policy`` (a user callable on the delivered payload)
plans every round: it gets a private cache that keeps nothing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

from repro.core.addresses import BROADCAST_PREFIX
from repro.core.messages import ControlCode, Message
from repro.core.tlm_engine import (
    NodeRoundState,
    RingTopology,
    RoundContext,
    TransactionPlan,
    plan_round,
    round_layout,
    stream_bit,
    stream_edges,
)

__all__ = [
    "MAX_RINGS",
    "SHAPES_PER_RING",
    "RoundShape",
    "ShapeCache",
    "clear_shapes",
    "shape_cache",
    "shape_count",
]

#: Rings the process-wide store keeps, least recently used evicted.
MAX_RINGS = 64
#: Shapes one ring keeps, oldest evicted.  Random 8-node traffic needs
#: under 2,000 (8 winners x 7 destinations x 16 lengths x 2 bits).
SHAPES_PER_RING = 4096


class RoundShape:
    """One planned round without its payload; every time field is an
    offset from the round's start."""

    __slots__ = (
        "key", "winner", "end_ps", "fin_ps", "node_end",
        "end_order", "bus_wake", "layer_wake", "clock_cycles",
        "control_cycles", "control", "general_error", "error_reason", "ok",
        "tx_control", "tx_success", "tx_bytes_sent", "rx",
        "data_bytes", "driven_bits", "wire", "encoded",
    )

    def __init__(self, key: tuple, plan: TransactionPlan) -> None:
        n = len(plan.node_end_at)
        self.key = key
        self.winner = plan.winner
        self.end_ps = plan.end_ps
        self.clock_cycles = plan.clock_cycles
        self.control_cycles = plan.control_cycles
        self.control = plan.control
        self.general_error = plan.general_error
        self.error_reason = plan.error_reason
        self.ok = (
            plan.control is ControlCode.EOM_ACK and not plan.general_error
        )
        self.tx_control = plan.tx_control
        self.tx_success = plan.tx_success
        self.tx_bytes_sent = plan.tx_bytes_sent
        #: Per position: when the node observes the round's end.
        self.node_end = tuple(plan.node_end_at[q] for q in range(n))
        self.fin_ps = max(self.node_end)
        self.end_order = tuple(
            sorted(range(n), key=self.node_end.__getitem__)
        )
        self.bus_wake = tuple(plan.bus_wake_at.items())
        self.layer_wake = tuple(
            (pos, at, reason)
            for pos, (at, reason) in plan.layer_wake_at.items()
        )
        #: ``(position, name, control, delivered, arrived)`` per
        #: receiver, in ring-arrival order.
        self.rx = tuple(
            (d.position, d.name, d.control, d.delivered, d.arrived_at_ps)
            for d in plan.rx
        )
        message = plan.message
        if message is None:
            self.data_bytes = self.driven_bits = edges = 0
        else:
            self.data_bytes = max(
                0, (plan.clock_cycles - 3 - message.dest.n_bits) // 8
            )
            self.driven_bits = plan.clock_cycles - 3
            edges = stream_edges(message, self.driven_bits)
        #: Per position: wire activity without the stream's own edges.
        self.wire = tuple(plan.wire_activity[q] - edges for q in range(n))
        #: Consumers' derived encodings of this shape (report rows),
        #: memoised here so they live and die with the shape.
        self.encoded: Optional[tuple] = None

    def payload(self, message: Message) -> bytes:
        """The slice of ``message``'s payload every receiver latched."""
        return message.payload[: self.data_bytes]

    def edges(self, message: Optional[Message]) -> int:
        """Wire activity ``message``'s own stream adds to every node."""
        if message is None:
            return 0
        return stream_edges(message, self.driven_bits)


class ShapeCache(dict):
    """The round shapes of one ring (topology facts, anchor, watchdog),
    by shape key.  ``capacity == 0`` keeps nothing."""

    __slots__ = (
        "topology", "anchor_pos", "max_message_bytes", "capacity",
        "_last_index",
    )

    def __init__(
        self,
        topology: RingTopology,
        anchor_pos: Optional[int],
        max_message_bytes: int,
        capacity: int = SHAPES_PER_RING,
    ) -> None:
        super().__init__()
        self.topology = topology
        self.anchor_pos = anchor_pos
        self.max_message_bytes = max_message_bytes
        self.capacity = capacity
        # (winner, destination class, length) -> last driven index.
        self._last_index: Dict[tuple, int] = {}

    def key(
        self,
        winner: Optional[int],
        message: Optional[Message],
        states: tuple,
        pulsers: tuple,
    ) -> tuple:
        """The shape key of a round ``winner`` transmits ``message`` in
        (``None`` for a null round) under non-default ``states`` and
        ``pulsers``."""
        if winner is None or message is None:
            return (None, None, 0, 0, states, pulsers)
        dest = message.dest
        n_bytes = len(message.payload)
        short = dest.short_prefix
        dclass = (
            short,
            dest.full_prefix,
            dest.fu_id if short == BROADCAST_PREFIX else None,
        )
        at = (winner, dclass, n_bytes)
        index = self._last_index.get(at)
        if index is None:
            index = self._last_index[at] = round_layout(
                self.topology, winner, dest, n_bytes,
                self.max_message_bytes,
            ).last_index
        bit = 0 if index < 0 else stream_bit(message, index)
        return (winner, dclass, n_bytes, bit, states, pulsers)

    def add(self, key: tuple, message: Optional[Message]) -> RoundShape:
        """Plan the round ``key`` names, with ``message`` as the
        winner's, and keep its shape."""
        winner, _dclass, _n, _bit, states, pulsers = key
        round_states = {
            pos: NodeRoundState(True, True, False, pos in pulsers)
            for pos in range(self.topology.n)
        }
        for pos, bus_on, layer_on, pending in states:
            round_states[pos] = NodeRoundState(
                bus_on, layer_on, pending, pos in pulsers
            )
        requests: Dict[int, Message] = (
            {} if message is None else {winner: message}
        )
        shape = RoundShape(key, plan_round(RoundContext(
            topology=self.topology,
            requests=requests,
            states=round_states,
            anchor_pos=self.anchor_pos,
            max_message_bytes=self.max_message_bytes,
        )))
        if self.capacity:
            with _lock:
                if len(self) >= self.capacity:
                    del self[next(iter(self))]
                self[key] = shape
        return shape

    def clear(self) -> None:
        super().clear()
        self._last_index.clear()


_lock = threading.Lock()
_store: "OrderedDict[tuple, ShapeCache]" = OrderedDict()


def shape_cache(
    topology: RingTopology,
    anchor_pos: Optional[int],
    max_message_bytes: int,
) -> ShapeCache:
    """The process-wide :class:`ShapeCache` of a ring."""
    ring = (topology.facts, anchor_pos, max_message_bytes)
    with _lock:
        cache = _store.get(ring)
        if cache is None:
            cache = _store[ring] = ShapeCache(
                topology, anchor_pos, max_message_bytes
            )
            while len(_store) > MAX_RINGS:
                _store.popitem(last=False)
        else:
            _store.move_to_end(ring)
    return cache


def shape_count() -> int:
    """Shapes held across every ring in the store."""
    with _lock:
        return sum(len(cache) for cache in _store.values())


def clear_shapes() -> None:
    """Empty the store and every cache in it, so a backend holding one
    of them plans its next round afresh."""
    with _lock:
        for cache in _store.values():
            cache.clear()
        _store.clear()
