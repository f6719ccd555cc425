"""Tier-3 compiler: lower a spec + schedule into flat arrays.

The batch backend never instantiates :class:`~repro.sim.scheduler.Simulator`,
:class:`~repro.sim.signals.Net`, :class:`~repro.core.node.MBusNode` or
either engine.  Instead this module lowers

* a :class:`~repro.scenario.spec.SystemSpec` into a
  :class:`CompiledSystem` — a node table of parallel integer tuples
  (positions, prefixes, buffer sizes, gating flags, per-hop delays)
  rooted at the mediator exactly like the fast path, plus the derived
  :class:`~repro.core.tlm_engine.RingTopology` the analytic round
  planner needs; and
* a compiled workload schedule into a :class:`CompiledWorkload` —
  sorted parallel ``(t_ps, position, kind, payload-ref)`` arrays with
  every distinct :class:`~repro.core.messages.Message` interned once.

The compiler validates a spec with the construction-path checks the
event-loop backends use (:func:`~repro.core.node.check_node`,
:func:`~repro.core.bus.check_prefixes`,
:func:`~repro.core.bus.check_anchor`) applied to its
:class:`~repro.scenario.spec.NodeSpec` objects, so a bad spec fails
with the same :class:`~repro.core.errors.ConfigurationError` on all
three tiers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import constants
from repro.core.bus import check_anchor, check_prefixes
from repro.core.errors import ConfigurationError
from repro.core.messages import Message
from repro.core.node import check_node
from repro.core.round_shape import ShapeCache, shape_cache
from repro.core.tlm_engine import NODE_SETTLE_FACTOR, RingTopology, TLMNode
from repro.scenario.spec import NodeSpec, SystemSpec
from repro.scenario.workload import InterruptEvent, PostEvent, ScheduleEvent

PS_PER_S = 1_000_000_000_000

#: Workload event kinds in the compiled ``kind`` array.
KIND_POST = 0
KIND_INTERRUPT = 1


class CompiledSystem:
    """A spec lowered to flat per-position arrays (mediator at 0).

    Everything the executor touches per event is an integer indexed by
    ring position; the only object-valued companions are the interned
    node names (for report assembly) and the planner-facing
    :class:`RingTopology`.  ``shapes`` is the ring's entry in the
    process-wide :func:`~repro.core.round_shape.shape_cache` store, so
    every trial on an equal ring, on either tier, shares its round
    shapes.
    """

    __slots__ = (
        "spec", "timing", "n",
        # node table — parallel tuples of ints, one entry per position
        "positions", "short_prefixes", "full_prefixes", "rx_buffer_bytes",
        "power_gated", "auto_sleep", "forward_delay_ps",
        "broadcast_channels",
        # derived
        "names", "spec_order_names", "position_of", "topology",
        "anchor_pos", "max_message_bytes", "settle_ps", "request_ps",
        "pulse_ps", "shapes",
        # the message intern table shared by every workload compiled
        # against this system (workload ``ref`` values index it)
        "message_ids", "message_table",
    )

    def __init__(self, spec: SystemSpec) -> None:
        spec.validate()
        self.spec = spec
        self.timing = spec.timing()
        nodes = list(spec.nodes)
        for node in nodes:
            check_node(node)
        check_prefixes(nodes)
        mediator_index = next(
            i for i, node in enumerate(nodes) if node.is_mediator
        )
        # Mediator-rooted rotation: same relabelling as the fast path.
        ring = nodes[mediator_index:] + nodes[:mediator_index]
        self.n = len(ring)
        self.positions = tuple(range(self.n))
        self.short_prefixes = tuple(
            -1 if node.short_prefix is None else node.short_prefix
            for node in ring
        )
        self.full_prefixes = tuple(
            -1 if node.full_prefix is None else node.full_prefix
            for node in ring
        )
        self.rx_buffer_bytes = tuple(node.rx_buffer_bytes for node in ring)
        self.power_gated = tuple(int(node.power_gated) for node in ring)
        self.auto_sleep = tuple(
            int(node.power_gated if node.auto_sleep is None
                else node.auto_sleep)
            for node in ring
        )
        self.forward_delay_ps = tuple(
            node.node_delay_ps or self.timing.node_delay_ps for node in ring
        )
        self.broadcast_channels = tuple(
            tuple(sorted(node.broadcast_channels)) for node in ring
        )
        self.names = tuple(node.name for node in ring)
        self.spec_order_names = tuple(node.name for node in nodes)
        self.position_of = {name: pos for pos, name in enumerate(self.names)}
        descriptors = [
            TLMNode(
                name=self.names[pos],
                position=pos,
                short_prefix=(
                    None if self.short_prefixes[pos] < 0
                    else self.short_prefixes[pos]
                ),
                full_prefix=(
                    None if self.full_prefixes[pos] < 0
                    else self.full_prefixes[pos]
                ),
                broadcast_channels=frozenset(self.broadcast_channels[pos]),
                rx_buffer_bytes=self.rx_buffer_bytes[pos],
                ack_policy=None,
                is_mediator=pos == 0,
                power_gated=bool(self.power_gated[pos]),
                auto_sleep=bool(self.auto_sleep[pos]),
                forward_delay_ps=self.forward_delay_ps[pos],
            )
            for pos in range(self.n)
        ]
        self.topology = RingTopology(descriptors, self.timing)
        self.anchor_pos = self._resolve_anchor(spec, ring)
        self.max_message_bytes = (
            constants.MIN_MAX_MESSAGE_BYTES
            if spec.max_message_bytes is None
            else constants.clamp_max_message_bytes(spec.max_message_bytes)
        )
        self.settle_ps = NODE_SETTLE_FACTOR * self.timing.node_delay_ps
        # From a post (an awake node requests the bus after its settle)
        # or a null pulse (a sleeping node) to the round start it asks
        # for: the hop to the mediator, then the mediator's wakeup.
        wakeup = self.timing.mediator_wakeup_ps
        self.request_ps = tuple(
            self.settle_ps + wakeup
            + (0 if p == 0 else self.topology.member_to_mediator(p))
            for p in range(self.n)
        )
        self.pulse_ps = tuple(
            self.topology.member_to_mediator(p) + wakeup
            for p in range(self.n)
        )
        self.shapes: ShapeCache = shape_cache(
            self.topology, self.anchor_pos, self.max_message_bytes
        )
        self.message_ids: Dict[Message, int] = {}
        self.message_table: List[Message] = []

    def _resolve_anchor(
        self, spec: SystemSpec, ring: List[NodeSpec]
    ) -> Optional[int]:
        name = spec.arbitration_anchor
        if name is None:
            return None
        anchor = spec.node(name)
        check_anchor(anchor)
        if anchor.is_mediator:
            return None   # anchoring at the mediator is the default
        return next(i for i, node in enumerate(ring) if node.name == name)


class CompiledWorkload:
    """A compiled schedule as sorted parallel ``(t, node, kind, ref)``
    arrays with an interned message table.

    ``t_ps[i]`` is the quantized post/interrupt instant (the same
    ``int(round(at_s * 1e12))`` the event-loop runner applies),
    ``pos[i]`` the mediator-rooted ring position, ``kind[i]`` one of
    :data:`KIND_POST` / :data:`KIND_INTERRUPT`, and ``ref[i]`` an
    index into ``messages`` (``-1`` for interrupts).  Messages are
    interned on the *compiled system* (``messages`` is a snapshot of
    its table), so equal messages share one integer id across every
    workload compiled against the same system.  Index order *is*
    scheduler order: the runner schedules all workload events before
    the simulation starts, so their insertion sequence — and therefore
    their priority at equal timestamps — is exactly this array order.
    """

    __slots__ = ("t_ps", "pos", "kind", "ref", "messages")

    def __init__(
        self,
        t_ps: Sequence[int],
        pos: Sequence[int],
        kind: Sequence[int],
        ref: Sequence[int],
        messages: Tuple[Message, ...],
    ) -> None:
        self.t_ps = tuple(t_ps)
        self.pos = tuple(pos)
        self.kind = tuple(kind)
        self.ref = tuple(ref)
        self.messages = messages

    def __len__(self) -> int:
        return len(self.t_ps)


def compile_workload(
    schedule: Sequence[ScheduleEvent], csys: CompiledSystem
) -> CompiledWorkload:
    """Lower a compiled schedule against ``csys``'s node table."""
    position_of = csys.position_of
    t_ps: List[int] = []
    pos: List[int] = []
    kind: List[int] = []
    ref: List[int] = []
    interned = csys.message_ids
    messages = csys.message_table
    # Per-call memo on Message's equality fields: a Message is built
    # and hashed only on first sight, not once per event.
    seen: Dict[tuple, int] = {}
    for event in schedule:
        if isinstance(event, PostEvent):
            source = event.source
            kind.append(KIND_POST)
            fields = (event.dest, event.payload, event.priority)
            index = seen.get(fields)
            if index is None:
                message = Message(
                    dest=event.dest,
                    payload=event.payload,
                    priority=event.priority,
                )
                index = interned.get(message)
                if index is None:
                    index = len(messages)
                    interned[message] = index
                    messages.append(message)
                seen[fields] = index
            ref.append(index)
        elif isinstance(event, InterruptEvent):
            source = event.node
            kind.append(KIND_INTERRUPT)
            ref.append(-1)
        else:
            raise ConfigurationError(
                f"workload items must be schedule events, got {event!r}"
            )
        position = position_of.get(source)
        if position is None:
            raise ConfigurationError(f"no node named {source!r}")
        pos.append(position)
        # The event-loop runner's quantizer, so both schedule at the
        # same picosecond.
        t_ps.append(int(round(event.at_s * PS_PER_S)))
    return CompiledWorkload(
        t_ps=t_ps,
        pos=pos,
        kind=kind,
        ref=ref,
        messages=tuple(messages),
    )
