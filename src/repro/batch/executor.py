"""Batch executor: whole-campaign bus-round replay over flat arrays.

The fast path realises each bus round as simulator events (a start, a
few power-ons, a finalize).  This executor removes the event queue and
the object graph entirely: it merges three integer streams — the
compiled workload arrays, a single pending round-start slot, and a
heap of pending auto-sleeps — in exactly the ``(time, seq)`` order the
:class:`~repro.sim.scheduler.Simulator` would have used, and resolves
each round from a :class:`~repro.core.round_shape.RoundShape`.

A shape is one round planned *once* by the same analytic
:func:`~repro.core.tlm_engine.plan_round` the fast path uses, with the
payload taken out.  Every time it holds is an offset from the round
start, and once arbitration is resolved none depends on the payload
bytes, so a shape keyed by

    (winner, destination class, payload length, last driven bit,
     sorted non-default (pos, bus_on, layer_on, pending) states,
     sorted pulser positions)

replays at any ``t0`` by integer addition.  The destination class is
the prefix and address width (plus the FU-ID of a broadcast, which
names the channel); the last driven bit sets the interjection's fire
delay.  The round's own message is logged beside its shape, and its
delivered slice and stream edges are applied when the report is
materialised.  Shapes live in the process-wide
:func:`~repro.core.round_shape.shape_cache` store the fast path also
resolves through, so trials on an equal ring share warm shapes — random
traffic on 8 nodes needs under 2,000 of them.

Equivalence contract (enforced by ``tests/integration`` and the
three-way diffcheck fuzz): byte-identical transaction signatures,
delivery sets and wake counts versus the fast path.  The post-round
choreography below — pulser exclusion, keep-earliest start merging,
return-to-idle pumping, null-pulse and auto-sleep suppression by
in-flight request falls — mirrors
:class:`~repro.sim.fastpath.FastPathBackend` line for line; deviations
are bugs, not optimisations.
"""

from __future__ import annotations

import time as _time
from collections import deque
from bisect import bisect_right
from heapq import heappop, heappush
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.batch.compiler import (
    KIND_POST,
    CompiledSystem,
    CompiledWorkload,
)
from repro.core.bus import TransactionResult
from repro.core.errors import BusLockedError, WallClockTimeout
from repro.core.messages import Message, ReceivedMessage
from repro.core.round_shape import RoundShape, ShapeCache
from repro.core.tlm_engine import resolve_arbitration
from repro.obs.state import OBS
from repro.sim.scheduler import SimulationError

#: Same runaway guard as ``Simulator.run(max_events=...)``.
MAX_STEPS = 50_000_000


class BatchResult:
    """Raw executor output, before report materialisation."""

    __slots__ = (
        "round_log", "hit_counts", "end_ps", "steps",
        "bus_on_ps", "layer_on_ps", "bus_wakeups", "layer_wakeups",
    )

    def __init__(self, round_log, hit_counts, end_ps, steps,
                 bus_on_ps, layer_on_ps, bus_wakeups, layer_wakeups):
        self.round_log = round_log            # [(t0, shape, message ref)]
        self.hit_counts = hit_counts          # {(shape, ref): executions}
        self.end_ps = end_ps
        self.steps = steps
        self.bus_on_ps = bus_on_ps            # per-position totals
        self.layer_on_ps = layer_on_ps
        self.bus_wakeups = bus_wakeups
        self.layer_wakeups = layer_wakeups


class BatchExecutor:
    """Merge-loop executor over one compiled (system, workload) pair."""

    def __init__(self, csys: CompiledSystem, cwl: CompiledWorkload) -> None:
        self.csys = csys
        self.cwl = cwl
        self.shapes: ShapeCache = csys.shapes
        n = csys.n
        self.queues: List[deque] = [deque() for _ in range(n)]
        self.backlog: set = set()
        self.pulsers: set = set()
        self.pending = [False] * n
        self.pending_set: set = set()
        # Power state; non-gated domains come up at t=0 exactly like
        # PowerDomain construction ("not-power-gated" → wake_count 1).
        self.bus_on = [g == 0 for g in csys.power_gated]
        self.layer_on = [g == 0 for g in csys.power_gated]
        self.bus_since = [0] * n
        self.layer_since = [0] * n
        self.bus_total = [0] * n
        self.layer_total = [0] * n
        self.bus_wakes = [0 if g else 1 for g in csys.power_gated]
        self.layer_wakes = [0 if g else 1 for g in csys.power_gated]
        # Positions whose (bus, layer, pending) state differs from the
        # always-on default — the only ones a shape key must name.
        self.dirty: set = {p for p in range(n) if csys.power_gated[p]}
        self.gated_auto = tuple(
            p for p in range(n)
            if csys.power_gated[p] and csys.auto_sleep[p]
        )
        # Event sources.  Workload events occupy seqs [0, len) — they
        # were "scheduled" before the run, so at equal timestamps they
        # fire before anything scheduled at runtime, exactly like the
        # event-loop runner.  Runtime seqs count up from len(cwl).
        self.wi = 0
        self.wl_n = len(cwl)
        self.seq = self.wl_n
        self.start_t0: Optional[int] = None
        self.start_seq = 0
        self.sleeps: List[Tuple[int, int, int]] = []
        self.now = 0
        self.steps = 0
        self.until: Optional[int] = None
        self.max_steps = MAX_STEPS
        self.round_log: List[Tuple[int, RoundShape, int]] = []
        self.hit_counts: Dict[Tuple[RoundShape, int], int] = {}

    # ------------------------------------------------------------------
    # Main merge loop.
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        wall_deadline: Optional[float] = None,
        max_steps: int = MAX_STEPS,
    ) -> BatchResult:
        wl_t, wl_pos, wl_kind, wl_ref = (
            self.cwl.t_ps, self.cwl.pos, self.cwl.kind, self.cwl.ref
        )
        self.until = until
        self.max_steps = max_steps
        sleeps = self.sleeps
        while True:
            if self.wi < self.wl_n:
                best_t, best_seq, src = wl_t[self.wi], self.wi, 1
            else:
                best_t = best_seq = None
                src = 0
            start_t0 = self.start_t0
            if start_t0 is not None and (
                src == 0
                or start_t0 < best_t
                or (start_t0 == best_t and self.start_seq < best_seq)
            ):
                best_t, best_seq, src = start_t0, self.start_seq, 2
            if sleeps:
                sleep_t, sleep_seq, _p = sleeps[0]
                if (
                    src == 0
                    or sleep_t < best_t
                    or (sleep_t == best_t and sleep_seq < best_seq)
                ):
                    best_t, best_seq, src = sleep_t, sleep_seq, 3
            if src == 0:
                break
            if until is not None and best_t > until:
                break
            self._step(best_t, wall_deadline)
            self.now = best_t
            if src == 1:
                # Every workload event due at this instant, in order:
                # runtime seqs all follow the workload's, and a post or
                # interrupt schedules nothing earlier than itself.
                i = self.wi
                end = bisect_right(wl_t, best_t, i)
                while True:
                    p = wl_pos[i]
                    if wl_kind[i] == KIND_POST:
                        self._post(best_t, p, wl_ref[i])
                        # More posts from p at this instant ask for the
                        # same start as this one: they only queue.
                        j = i + 1
                        while (
                            j < end and wl_pos[j] == p
                            and wl_kind[j] == KIND_POST
                        ):
                            j += 1
                        if j > i + 1:
                            self.queues[p].extend(wl_ref[i + 1:j])
                            self._step(best_t, wall_deadline, j - i - 1)
                        i = j
                    else:
                        self._interrupt(best_t, p)
                        i += 1
                    if i == end:
                        break
                    self._step(best_t, wall_deadline)
                self.wi = i
            elif src == 2:
                self.start_t0 = None
                self._run_round(best_t)
            else:
                _t, _s, p = heappop(sleeps)
                self._auto_sleep(best_t, p)
        # Simulator.run(until=...) leaves now == until whether the
        # queue drained or stopped at the horizon.
        end_ps = until if until is not None and until > self.now else self.now
        if not self._is_idle():
            raise BusLockedError(
                "bus did not return to idle: traffic still queued "
                "on the batch backend"
            )
        bus_on_ps = list(self.bus_total)
        layer_on_ps = list(self.layer_total)
        for p in range(self.csys.n):
            if self.bus_on[p]:
                bus_on_ps[p] += end_ps - self.bus_since[p]
            if self.layer_on[p]:
                layer_on_ps[p] += end_ps - self.layer_since[p]
        if OBS.enabled:
            OBS.metrics.inc("batch.run_calls")
            OBS.metrics.set("batch.steps", self.steps)
            OBS.metrics.set("batch.rounds", len(self.round_log))
        return BatchResult(
            round_log=self.round_log,
            hit_counts=self.hit_counts,
            end_ps=end_ps,
            steps=self.steps,
            bus_on_ps=bus_on_ps,
            layer_on_ps=layer_on_ps,
            bus_wakeups=list(self.bus_wakes),
            layer_wakeups=list(self.layer_wakes),
        )

    def _step(
        self, t: int, wall_deadline: Optional[float], count: int = 1
    ) -> None:
        """Count ``count`` dispatched events against the runaway guard
        and, every 256 events, the wall-clock budget."""
        steps = self.steps = self.steps + count
        if steps > self.max_steps:
            raise SimulationError(
                f"exceeded {self.max_steps} events; likely oscillation"
            )
        if wall_deadline is not None and steps >> 8 != (steps - count) >> 8:
            if _time.perf_counter() > wall_deadline:
                raise WallClockTimeout(
                    f"batch execution exceeded its wall-clock budget "
                    f"after {self.steps} steps at t={t} ps"
                )

    def _is_idle(self) -> bool:
        return (
            self.start_t0 is None
            and not self.backlog
            and not self.pending_set
        )

    # ------------------------------------------------------------------
    # Out-of-round event handlers (post / interrupt / auto-sleep).
    # ------------------------------------------------------------------
    def _refresh(self, p: int) -> None:
        if self.bus_on[p] and self.layer_on[p] and not self.pending[p]:
            self.dirty.discard(p)
        else:
            self.dirty.add(p)

    def _post(self, t: int, p: int, ref: int) -> None:
        self.queues[p].append(ref)
        self.backlog.add(p)
        if self.bus_on[p] and self.layer_on[p]:
            # _schedule_start, inlined: a burst posts many at once.
            t0 = t + self.csys.request_ps[p]
            start_t0 = self.start_t0
            if start_t0 is None or t0 < start_t0:
                self.start_t0 = t0
                self.seq += 1
                self.start_seq = self.seq
        else:
            self._raise_pulse(t, p)

    def _interrupt(self, t: int, p: int) -> None:
        self.pending[p] = True
        self.pending_set.add(p)
        self.dirty.add(p)
        self._raise_pulse(t, p)

    def _raise_pulse(self, t: int, p: int) -> None:
        self.pending[p] = True
        self.pending_set.add(p)
        self.dirty.add(p)
        self.pulsers.add(p)
        self._schedule_start(t + self.csys.pulse_ps[p])

    def _schedule_start(self, t0: int) -> None:
        # Keep-earliest merge of the single start slot; a reschedule
        # takes a fresh seq like the cancelled-and-replaced event.
        if self.start_t0 is not None and self.start_t0 <= t0:
            return
        self.start_t0 = t0
        self.seq += 1
        self.start_seq = self.seq

    def _auto_sleep(self, t: int, p: int) -> None:
        if self.queues[p] or self.pending[p]:
            return
        if self.layer_on[p]:
            self.layer_on[p] = False
            self.layer_total[p] += t - self.layer_since[p]
        if self.bus_on[p]:
            self.bus_on[p] = False
            self.bus_total[p] += t - self.bus_since[p]
        self.dirty.add(p)

    # ------------------------------------------------------------------
    # Round execution.
    # ------------------------------------------------------------------
    def _shape(self) -> Tuple[RoundShape, int]:
        """The round starting now: its shape and the winner's message
        ref (``-1`` for a null round)."""
        csys = self.csys
        bus_on, layer_on = self.bus_on, self.layer_on
        pulsers = self.pulsers
        queues = self.queues
        requesters = [
            p for p in sorted(self.backlog)
            if bus_on[p] and layer_on[p] and p not in pulsers
        ]
        messages = csys.message_table
        if not requesters:
            winner = None
            ref = -1
        elif len(requesters) == 1:
            winner = requesters[0]
            ref = queues[winner][0]
        else:
            winner = resolve_arbitration(
                csys.n,
                {p: messages[queues[p][0]] for p in requesters},
                csys.anchor_pos,
            )
            ref = queues[winner][0]
        message = None if ref < 0 else messages[ref]
        dirty = self.dirty
        states = tuple(sorted(
            (p, bus_on[p], layer_on[p], self.pending[p])
            for p in dirty
        )) if dirty else ()
        shapes = self.shapes
        key = shapes.key(
            winner, message, states,
            tuple(sorted(pulsers)) if pulsers else (),
        )
        shape = shapes.get(key)
        if OBS.enabled:
            OBS.metrics.inc(
                "batch.template_hits" if shape is not None
                else "batch.template_misses"
            )
        if shape is None:
            shape = shapes.add(key, message)
        return shape, ref

    def _run_round(self, t0: int) -> None:
        csys = self.csys
        shape, ref = self._shape()
        self.pulsers.clear()
        fin_t = t0 + shape.fin_ps
        # Hierarchical wakeups, applied eagerly: nothing reads power
        # state again until the round has finished.
        for p, off in shape.bus_wake:
            self.bus_on[p] = True
            self.bus_wakes[p] += 1
            self.bus_since[p] = t0 + off
            self.steps += 1
            self._refresh(p)
        for p, off, _reason in shape.layer_wake:
            self.layer_on[p] = True
            self.layer_wakes[p] += 1
            self.layer_since[p] = t0 + off
            self.steps += 1
            self._refresh(p)
        # Workload arriving while the round is in flight is absorbed
        # passively (post/interrupt on an active fast path only queue).
        wl_t, wl_pos, wl_kind, wl_ref = (
            self.cwl.t_ps, self.cwl.pos, self.cwl.kind, self.cwl.ref
        )
        while self.wi < self.wl_n and wl_t[self.wi] <= fin_t:
            i = self.wi
            self.wi += 1
            self.steps += 1
            p = wl_pos[i]
            if wl_kind[i] == KIND_POST:
                self.queues[p].append(wl_ref[i])
                self.backlog.add(p)
            else:
                self.pending[p] = True
                self.pending_set.add(p)
                self.dirty.add(p)
        # Auto-sleeps that fire inside the round are no-ops there (the
        # backend is busy); they predate this round's finalize, so any
        # heap entry at or before fin_t is spent.
        while self.sleeps and self.sleeps[0][0] <= fin_t:
            heappop(self.sleeps)
            self.steps += 1
        # Finalize.
        self.steps += 1
        queues = self.queues
        backlog = self.backlog
        if shape.winner is not None:
            queue = queues[shape.winner]
            queue.popleft()
            if not queue:
                backlog.discard(shape.winner)
        self.round_log.append((t0, shape, ref))
        hit_counts = self.hit_counts
        hit_counts[shape, ref] = hit_counts.get((shape, ref), 0) + 1
        bus_on, layer_on = self.bus_on, self.layer_on
        pending, pending_set = self.pending, self.pending_set
        # Interrupt servicing at each node's observed transaction end.
        if pending_set:
            for p in shape.end_order:
                if pending[p] and bus_on[p] and layer_on[p]:
                    pending[p] = False
                    pending_set.discard(p)
                    self._refresh(p)
        # Re-arm queued traffic (FastPathBackend._pump_after_round,
        # inlined: this runs once per round on the hot path).
        topology = csys.topology
        settle = csys.settle_ps
        return_to_idle = (
            t0 + shape.end_ps + 2 * csys.timing.ring_delay_ps(csys.n)
        )
        candidates: List[int] = []
        request_falls: Dict[int, int] = {}
        node_end = shape.node_end
        actors = (
            sorted(backlog) if not pending_set
            else sorted(backlog | pending_set)
        )
        sleepers: List[Tuple[int, int]] = []
        for p in actors:
            t_end = t0 + node_end[p]
            if bus_on[p] and layer_on[p] and queues[p]:
                if p == 0:
                    candidates.append(t_end + settle)
                else:
                    request_falls[p] = t_end + settle
                    arrival = (
                        t_end + settle + topology.member_to_mediator(p)
                    )
                    candidates.append(max(arrival, return_to_idle))
            else:
                pending[p] = True
                pending_set.add(p)
                self.dirty.add(p)
                sleepers.append((t_end + settle, p))
        # Null pulses in drive order; a node an earlier fall already
        # reached is busy and stays pending without pulsing.
        for at, p in sorted(sleepers):
            if topology.fall_reaches(request_falls, p, at):
                continue
            self.pulsers.add(p)
            request_falls[p] = at
            candidates.append(
                max(at + topology.member_to_mediator(p), return_to_idle)
            )
        if candidates:
            self._schedule_start(
                min(candidates) + csys.timing.mediator_wakeup_ps
            )
        # Auto-sleep scheduling (FastPathBackend's per-round sleep
        # timers, inlined).  Another node's request fall reaching a
        # node before its settle expires cancels the sleep (the node
        # rides into the next round without a fresh wakeup).
        for p in self.gated_auto:
            if queues[p] or pending[p]:
                continue
            at = t0 + node_end[p] + settle
            if at < fin_t:
                at = fin_t
            if topology.fall_reaches(request_falls, p, at):
                continue
            self.seq += 1
            heappush(self.sleeps, (at, self.seq, p))
        self.now = fin_t
        # Steady-state replay: when the round leaves the system in a
        # state that reproduces it — one active requester, no pending
        # pulses, no dirty power state — each following identical-
        # message round is this shape shifted by a constant period,
        # so a whole run of them resolves with integer arithmetic
        # instead of re-entering the merge loop per round.  Two shapes
        # qualify: the all-on steady state (fleet campaigns), and the
        # wake/sleep limit cycle (the fig14 burst: one gated receiver
        # wakes for each delivery and auto-sleeps between rounds).
        w = shape.winner
        start_t0 = self.start_t0
        if (
            w is None
            or start_t0 is None
            or pending_set
            or self.pulsers
            or self.dirty
            or backlog != {w}
        ):
            return
        sleeps = self.sleeps
        queue = queues[w]
        head = queue[0]
        if sleeps:
            # Limit-cycle shape: exactly one gated node sleeps between
            # rounds and is rewoken by each delivery.  The sleep must
            # genuinely fire before the next start (strictly earlier),
            # and the shape must wake exactly that node.
            if len(sleeps) != 1:
                return
            t_sl, _sseq, p_s = sleeps[0]
            if (
                p_s == w
                or t_sl >= start_t0
                or len(shape.bus_wake) != 1
                or len(shape.layer_wake) != 1
                or shape.bus_wake[0][0] != p_s
                or shape.layer_wake[0][0] != p_s
            ):
                return
            states: tuple = ((p_s, False, False, False),)
            # sleep + start + two wakes + finalize per cycle.
            steps_per = 5
        else:
            if shape.bus_wake or shape.layer_wake:
                return
            states = ()
            p_s = None
            steps_per = 2     # start dispatch + finalize per round
        # The next round — ``w`` alone sends its head of queue from
        # the state this round left — must be this very shape.
        if shape.key != self.shapes.key(
            w, csys.message_table[head], states, ()
        ):
            return
        delta = start_t0 - t0
        if delta <= 0:
            return
        # Bound the window: stay inside the horizon, stop before any
        # round that would absorb a workload event (absorption uses
        # ``<= fin_t``, hence the strict inequality), and always leave
        # one queued message so the closing round runs the full
        # post-round choreography — its pump decides what the steady
        # state suppresses or schedules next.
        k = len(queue) - 1
        if self.until is not None:
            k = min(k, (self.until - t0) // delta)
        if self.wi < self.wl_n:
            te = wl_t[self.wi]
            k = min(k, (te - t0 - shape.fin_ps - 1) // delta)
        if k <= 0:
            return
        run_len = 0
        for r in islice(queue, k):
            if r != head:
                break
            run_len += 1
        k = run_len
        if k <= 0:
            return
        self.steps += steps_per * k
        if self.steps > self.max_steps:
            raise SimulationError(
                f"exceeded {self.max_steps} events; likely oscillation"
            )
        if OBS.enabled:
            OBS.metrics.inc("batch.steady_replays")
            OBS.metrics.inc("batch.steady_rounds", k)
        self.round_log.extend([
            (t0 + r * delta, shape, head) for r in range(1, k + 1)
        ])
        popleft = queue.popleft
        for _ in range(k):
            popleft()
        s = t0 + k * delta
        self.hit_counts[shape, head] = (
            self.hit_counts.get((shape, head), 0) + k
        )
        self.seq += 1
        self.start_t0 = s + delta
        self.start_seq = self.seq
        if p_s is not None:
            # Each cycle the sleeper is on from its wake offset until
            # the sleep instant — a constant span — and both domains
            # wake exactly once.  Leave the node powered with a fresh
            # pending sleep, exactly as round k's pump would have.
            off_b = shape.bus_wake[0][1]
            off_l = shape.layer_wake[0][1]
            d_sleep = t_sl - t0
            self.bus_total[p_s] += k * (d_sleep - off_b)
            self.layer_total[p_s] += k * (d_sleep - off_l)
            self.bus_wakes[p_s] += k
            self.layer_wakes[p_s] += k
            self.bus_since[p_s] = s + off_b
            self.layer_since[p_s] = s + off_l
            self.seq += 1
            sleeps[0] = (s + d_sleep, self.seq, p_s)
        self.now = s + shape.fin_ps


# ----------------------------------------------------------------------
# Report materialisation.
# ----------------------------------------------------------------------
def round_transaction(
    index: int,
    t0: int,
    shape: RoundShape,
    message: Optional[Message],
    names,
) -> TransactionResult:
    """One logged round (started at ``t0``, ``message`` its winner's)
    as the event-loop backends' :class:`TransactionResult`."""
    rx_deliveries = []
    if message is not None and shape.rx:
        dest = message.dest
        payload = shape.payload(message)
        broadcast = dest.is_broadcast
        rx_deliveries = [
            (
                name,
                ReceivedMessage(
                    source_hint="",
                    dest=dest,
                    payload=payload,
                    broadcast=broadcast,
                    control=control,
                    arrived_at_ps=t0 + arr_off,
                ),
            )
            for _pos, name, control, delivered, arr_off in shape.rx
            if delivered
        ]
    return TransactionResult(
        index=index,
        ok=shape.ok,
        control=shape.control,
        tx_node=None if shape.winner is None else names[shape.winner],
        message=message,
        rx_deliveries=rx_deliveries,
        clock_cycles=shape.clock_cycles,
        control_cycles=shape.control_cycles,
        start_ps=t0,
        end_ps=t0 + shape.end_ps,
        general_error=shape.general_error,
        error_reason=shape.error_reason,
    )


def round_message(csys: CompiledSystem, ref: int) -> Optional[Message]:
    """The message a logged round's ``ref`` names (``None``: a null
    round)."""
    return None if ref < 0 else csys.message_table[ref]


def materialize(
    csys: CompiledSystem, result: BatchResult
) -> List[TransactionResult]:
    """Expand a round log into the event-loop backends' transaction
    stream: one :class:`TransactionResult` object per round.

    The runner calls this lazily, on a batch report's first
    ``transactions`` access; serialising a report never needs it.
    """
    names = csys.names
    return [
        round_transaction(
            index, t0, shape, round_message(csys, ref), names
        )
        for index, (t0, shape, ref) in enumerate(result.round_log)
    ]


def power_and_wire(csys: CompiledSystem, result: BatchResult):
    """The event-loop backends' power-domain report and per-node
    wire activity for one run."""
    names = csys.names
    power = {}
    for name in csys.spec_order_names:
        p = csys.position_of[name]
        power[name] = {
            "bus_on_s": result.bus_on_ps[p] / 1e12,
            "layer_on_s": result.layer_on_ps[p] / 1e12,
            "bus_wakeups": result.bus_wakeups[p],
            "layer_wakeups": result.layer_wakeups[p],
        }
    # Each shape's per-node toggle counts plus its message's stream
    # edges, weighted by how many times the pair ran.
    totals = [0] * csys.n
    for (shape, ref), hits in result.hit_counts.items():
        edges = shape.edges(round_message(csys, ref))
        for p, toggles in enumerate(shape.wire):
            totals[p] += hits * (toggles + edges)
    wire = {names[p]: totals[p] for p in range(csys.n)}
    return power, wire

