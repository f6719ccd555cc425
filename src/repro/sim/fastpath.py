"""Fast-path backend: transaction-level MBus simulation.

The edge-accurate engine (:mod:`repro.core.bus` with ``mode="edge"``)
schedules a Python event for every transition of every ring segment —
hundreds of events per transaction.  This backend replaces that with a
handful of events per transaction: each bus round is computed in
closed form by :mod:`repro.core.tlm_engine` and realised as

* one *start* event (the mediator's self-start),
* one power on/off event per hierarchical wakeup or auto-sleep, and
* one *finalize* event that performs deliveries, transaction-result
  assembly and re-arming of queued traffic.

A plan's times are offsets from the round's start and, once
arbitration is resolved, depend on the payload only through its length
and last driven bit.  Rounds therefore resolve through the
process-wide :mod:`repro.core.round_shape` store the batch tier shares:
a round whose shape any earlier run on an equal ring planned is
replayed, with its message, delivered slice and stream edges applied
as an overlay.

The backend drives the same :class:`~repro.sim.scheduler.Simulator`,
:class:`~repro.core.power_domain.PowerDomain` objects and
:class:`~repro.core.bus.TransactionResult` plumbing as the edge
engine, so ``MBusSystem(mode="fast")`` is a drop-in replacement for
workloads that operate at message granularity.  The edge engine
remains the golden reference: waveform tracing, third-party
interjection and other intra-transaction behaviours require
``mode="edge"``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core import constants
from repro.core.bus_controller import TxOutcome
from repro.core.mediator import MediatorReport
from repro.core.messages import Message, ReceivedMessage
from repro.core.round_shape import RoundShape, ShapeCache, shape_cache
from repro.core.tlm_engine import (
    NODE_SETTLE_FACTOR,
    RingTopology,
    TLMNode,
    resolve_arbitration,
)
from repro.obs.state import OBS


class FastPathBackend:
    """Transaction-level executor behind ``MBusSystem(mode="fast")``."""

    def __init__(self, system) -> None:
        self.system = system
        self.sim = system.sim
        self.timing = system.timing
        # The planner roots all ring arithmetic (propagation, break
        # points, control resolution) at the mediator.  The system
        # allows the mediator to be added at any insertion index, so
        # rotate the ring to put it at position 0 — a pure relabelling
        # on a ring, preserving adjacency and topological priority.
        nodes = list(system.nodes)
        mediator_index = next(
            i for i, node in enumerate(nodes) if node.config.is_mediator
        )
        self.nodes = nodes[mediator_index:] + nodes[:mediator_index]
        self._positions = {node.name: pos for pos, node in enumerate(self.nodes)}
        descriptors = [
            TLMNode(
                name=node.name,
                position=position,
                short_prefix=node.config.short_prefix,
                full_prefix=node.config.full_prefix,
                broadcast_channels=frozenset(node.config.broadcast_channels),
                rx_buffer_bytes=node.config.rx_buffer_bytes,
                ack_policy=node.config.ack_policy,
                is_mediator=node.config.is_mediator,
                power_gated=node.config.power_gated,
                auto_sleep=bool(node.config.auto_sleep),
                forward_delay_ps=(
                    node.config.node_delay_ps or self.timing.node_delay_ps
                ),
            )
            for position, node in enumerate(self.nodes)
        ]
        self.topology = RingTopology(descriptors, self.timing)
        self.queues: Dict[int, Deque[Message]] = {
            pos: deque() for pos in range(len(self.nodes))
        }
        self.anchor_pos: Optional[int] = None
        self.max_message_bytes = constants.MIN_MAX_MESSAGE_BYTES
        self.active = False
        self._pulsers: set = set()
        self._start_event = None
        self._start_t0: Optional[int] = None
        self._tx_index = 0
        # An ack_policy is a user callable on the delivered payload, so
        # a ring with one plans every round.
        self._plans_every_round = any(
            node.config.ack_policy is not None for node in self.nodes
        )
        self._shapes = self._shape_cache()
        self._wire_activity = [0] * len(self.nodes)
        self._auto_sleepers = tuple(
            pos for pos, node in enumerate(self.nodes)
            if node.config.power_gated and node.config.auto_sleep
        )
        # The settle every node applies between observing a
        # transaction boundary and acting (MBusNode._settle_ps).
        self._settle_ps = NODE_SETTLE_FACTOR * self.timing.node_delay_ps
        for node in self.nodes:
            node.fast_backend = self

    # ------------------------------------------------------------------
    # Node-facing API (delegated from MBusNode).
    # ------------------------------------------------------------------
    def post_message(self, node, message: Message) -> None:
        pos = self._position(node)
        self.queues[pos].append(message)
        if self.active:
            return  # picked up when the in-flight round finalises
        if node.is_fully_awake:
            self._request_start_from(pos, settle=True)
        else:
            self._raise_pulse(pos)

    def trigger_interrupt(self, node) -> None:
        node.pending_interrupt = True
        if self.active:
            return
        self._raise_pulse(self._position(node))

    def node_busy(self, node) -> bool:
        return self.active

    # ------------------------------------------------------------------
    # System-facing API.
    # ------------------------------------------------------------------
    @property
    def is_idle(self) -> bool:
        return (
            not self.active
            and self._start_event is None
            and not any(self.queues.values())
            and not any(n.pending_interrupt for n in self.nodes)
        )

    def wire_activity(self) -> Dict[str, int]:
        return {
            node.name: count
            for node, count in zip(self.nodes, self._wire_activity)
        }

    def set_anchor(self, name: Optional[str]) -> None:
        """Anchor by node name (positions here are mediator-rooted)."""
        self.anchor_pos = None if name is None else self._positions[name]
        self._shapes = self._shape_cache()

    def set_max_message_bytes(self, n_bytes: int) -> None:
        """Set the (already clamped) runaway watchdog length."""
        self.max_message_bytes = n_bytes
        self._shapes = self._shape_cache()

    def _shape_cache(self) -> ShapeCache:
        if self._plans_every_round:
            return ShapeCache(
                self.topology, self.anchor_pos, self.max_message_bytes,
                capacity=0,
            )
        return shape_cache(
            self.topology, self.anchor_pos, self.max_message_bytes
        )

    # ------------------------------------------------------------------
    # Round triggering.
    # ------------------------------------------------------------------
    def _position(self, node) -> int:
        return self._positions[node.name]

    def _request_start_from(self, pos: int, settle: bool) -> None:
        """An awake node (re)requests the bus from idle at ``sim.now``.

        Mirrors MBusNode._kick: a settle delay, then either the
        mediator's member starts the clock directly or the node pulls
        DATA low and the falling edge travels to the mediator.
        """
        now = self.sim.now
        delay = self._settle_ps if settle else 0
        if pos == 0:
            trigger = now + delay
        else:
            trigger = now + delay + self.topology.member_to_mediator(pos)
        self._schedule_start(trigger + self.timing.mediator_wakeup_ps)

    def _raise_pulse(self, pos: int) -> None:
        """A sleeping (or layer-gated) node raises its interrupt pulse."""
        node = self.nodes[pos]
        node.pending_interrupt = True
        self._pulsers.add(pos)
        trigger = self.sim.now + self.topology.member_to_mediator(pos)
        self._schedule_start(trigger + self.timing.mediator_wakeup_ps)

    def _schedule_start(self, t0: int) -> None:
        if self.active:
            return
        if self._start_event is not None:
            if self._start_t0 <= t0:
                return
            self._start_event.cancel()
        self._start_t0 = t0
        self._start_event = self.sim.schedule_at(t0, self._begin_round)

    # ------------------------------------------------------------------
    # Round execution.
    # ------------------------------------------------------------------
    def _begin_round(self) -> None:
        self._start_event = None
        self._start_t0 = None
        t0 = self.sim.now
        nodes = self.nodes
        pulsers = self._pulsers
        # A node that raised the null pulse cannot arbitrate in its
        # own pulse round: releasing the pulse at the first clock
        # falling edge switches its line controller back to forwarding,
        # wiping any request it had driven (the edge engine therefore
        # runs a General Error round first and the message goes out in
        # the following one).
        # The key names only states that differ from the awake,
        # interrupt-free default.
        requests: Dict[int, Message] = {}
        states = []
        queues = self.queues
        for pos, node in enumerate(nodes):
            bus_on = node.bus_domain.is_on
            layer_on = node.layer_domain.is_on
            if bus_on and layer_on:
                if node.pending_interrupt:
                    states.append((pos, True, True, True))
                queue = queues[pos]
                if queue and pos not in pulsers:
                    requests[pos] = queue[0]
            else:
                states.append(
                    (pos, bus_on, layer_on, node.pending_interrupt)
                )
        if len(requests) == 1:
            winner = next(iter(requests))
        else:
            winner = resolve_arbitration(
                len(nodes), requests, self.anchor_pos
            )
        message = None if winner is None else requests[winner]
        shapes = self._shapes
        key = shapes.key(
            winner, message, tuple(states),
            tuple(sorted(pulsers)) if pulsers else (),
        )
        shape = shapes.get(key)
        if OBS.enabled:
            OBS.metrics.inc(
                "fastpath.round_cache_misses" if shape is None
                else "fastpath.round_cache_hits"
            )
        if shape is None:
            shape = shapes.add(key, message)
        self.active = True
        for pos, at_ps in shape.bus_wake:
            reason = "interrupt" if pos in pulsers else "transaction"
            self.sim.schedule_at(
                t0 + at_ps, _power_on_fn(nodes[pos].bus_domain, reason)
            )
        for pos, at_ps, reason in shape.layer_wake:
            self.sim.schedule_at(
                t0 + at_ps, _power_on_fn(nodes[pos].layer_domain, reason)
            )
        pulsers.clear()
        self.sim.schedule_at(
            t0 + shape.fin_ps,
            lambda: self._finalize(shape, t0, message),
        )

    def _finalize(
        self, shape: RoundShape, t0: int, message: Optional[Message]
    ) -> None:
        # Stay "busy" through result/delivery callbacks: the edge
        # engine fires on_tx_done/on_rx_done before its FSM returns to
        # IDLE, so e.g. node.sleep() from an on_receive handler raises
        # on both backends.  Interrupt servicing below happens after
        # the engines idle, so the flag drops first there.

        # Transmit outcome first at the transmitter's end-of-round: pop
        # and report this round's own head of queue.
        if message is not None:
            tx_node = self.nodes[shape.winner]
            queue = self.queues[shape.winner]
            if queue and queue[0] is message:
                queue.popleft()
            outcome = TxOutcome(
                message=message,
                control=shape.tx_control,
                success=shape.tx_success,
                bytes_sent=shape.tx_bytes_sent,
            )
            tx_node.results.append(outcome)
            if tx_node.on_result is not None:
                tx_node.on_result(tx_node, outcome)

            # Deliveries, in ring-arrival order (members, then mediator).
            payload = shape.payload(message)
            for pos, _name, control, delivered, arrived_at_ps in shape.rx:
                if not delivered:
                    continue
                node = self.nodes[pos]
                received = ReceivedMessage(
                    source_hint="",
                    dest=message.dest,
                    payload=payload,
                    broadcast=message.dest.is_broadcast,
                    control=control,
                    arrived_at_ps=t0 + arrived_at_ps,
                )
                node.inbox.append(received)
                node.layer.deliver(received)
                if node.on_receive is not None:
                    node.on_receive(node, received)

        # Interrupt servicing at each node's observed transaction end.
        self.active = False
        for pos in shape.end_order:
            node = self.nodes[pos]
            if node.pending_interrupt and node.is_fully_awake:
                node.pending_interrupt = False
                if node.on_interrupt is not None:
                    node.on_interrupt(node)

        report = MediatorReport(
            index=self._tx_index,
            start_ps=t0,
            end_ps=t0 + shape.end_ps,
            clock_cycles=shape.clock_cycles,
            control_cycles=shape.control_cycles,
            control_bits=tuple(shape.control.value),
            general_error=shape.general_error,
            error_reason=shape.error_reason,
        )
        self._tx_index += 1
        edges = shape.edges(message)
        wire_activity = self._wire_activity
        for pos, count in enumerate(shape.wire):
            wire_activity[pos] += count + edges
        self.system._assemble_result(report)
        if OBS.enabled:
            OBS.metrics.inc("fastpath.rounds")

        request_falls = self._pump_after_round(shape, t0)
        self._schedule_auto_sleeps(shape, t0, request_falls)

    # ------------------------------------------------------------------
    # Post-round housekeeping.
    # ------------------------------------------------------------------
    def _schedule_auto_sleeps(
        self, shape: RoundShape, t0: int, request_falls: Dict[int, int]
    ) -> None:
        settle = self._settle_ps
        for pos in self._auto_sleepers:
            node = self.nodes[pos]
            if self.queues[pos] or node.pending_interrupt:
                continue
            at_ps = max(self.sim.now, t0 + shape.node_end[pos] + settle)
            # The edge engine aborts the sleep if another node's bus
            # request (a DATA falling edge) reaches this node before
            # its settle expires — the engine is "busy" again and the
            # node rides straight into the next round without a fresh
            # wakeup.
            if self.topology.fall_reaches(request_falls, pos, at_ps):
                continue
            self.sim.schedule_at(at_ps, _auto_sleep_fn(self, pos))

    def _auto_sleep(self, pos: int) -> None:
        node = self.nodes[pos]
        if self.active or self.queues[pos] or node.pending_interrupt:
            return
        if node.layer_domain.is_on:
            node.layer_domain.power_off("auto-sleep")
        if node.bus_domain.is_on:
            node.bus_domain.power_off("auto-sleep")

    def _pump_after_round(
        self, shape: RoundShape, t0: int
    ) -> Dict[int, int]:
        """Arm the next round from whatever traffic remains queued.

        Mirrors the edge engine's end-of-transaction choreography:
        nodes re-request a settle delay after observing their final
        control edge; the mediator catches a pending request either at
        its return-to-idle scan (two ring delays after the report) or
        on the request's falling edge, whichever is later.  A node that
        is not fully awake raises its null pulse instead — unless
        another node's request (or earlier pulse) has already reached
        it, which leaves it busy observing that round: it stays
        pending and pulses after the round.

        Returns the DATA falling edges emitted by re-requesting and
        pulsing nodes (position -> drive time), which auto-sleep
        suppression needs.
        """
        n = self.topology.n
        settle = self._settle_ps
        return_to_idle = t0 + shape.end_ps + 2 * self.timing.ring_delay_ps(n)
        candidates: List[int] = []
        request_falls: Dict[int, int] = {}
        sleepers: List[Tuple[int, int]] = []
        for pos, node in enumerate(self.nodes):
            wants_bus = bool(self.queues[pos]) or node.pending_interrupt
            if not wants_bus:
                continue
            t_end = t0 + shape.node_end[pos]
            if node.is_fully_awake and self.queues[pos]:
                if pos == 0:
                    # The mediator's member starts the clock directly;
                    # it never pulls DATA low from idle.
                    candidates.append(t_end + settle)
                else:
                    request_falls[pos] = t_end + settle
                    arrival = (
                        t_end + settle
                        + self.topology.member_to_mediator(pos)
                    )
                    candidates.append(max(arrival, return_to_idle))
            else:
                node.pending_interrupt = True
                sleepers.append((t_end + settle, pos))
        # Pulses in drive order: only an earlier fall can make a node
        # busy before its own settle expires.
        for at_ps, pos in sorted(sleepers):
            if self.topology.fall_reaches(request_falls, pos, at_ps):
                continue
            self._pulsers.add(pos)
            request_falls[pos] = at_ps
            candidates.append(
                max(at_ps + self.topology.member_to_mediator(pos),
                    return_to_idle)
            )
        if candidates:
            self._schedule_start(
                min(candidates) + self.timing.mediator_wakeup_ps
            )
        return request_falls


def _power_on_fn(domain, reason):
    return lambda: domain.power_on(reason)


def _auto_sleep_fn(backend, pos):
    return lambda: backend._auto_sleep(pos)
