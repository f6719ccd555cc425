"""Event scheduler: a deterministic, time-ordered callback queue.

Time is kept in integer picoseconds.  Integer time makes the simulation
fully deterministic (no floating-point tie ambiguity) and is fine-
grained enough for the delays MBus cares about (node-to-node
propagation is specified as at most 10 ns).
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, List, Optional, Tuple

from repro.obs.state import OBS

#: Convenience time constants, all in integer picoseconds.
PS = 1
NS = 1_000
US = 1_000_000
MS = 1_000_000_000
S = 1_000_000_000_000


class SimulationError(RuntimeError):
    """Raised when the simulation cannot make progress or is misused."""


class Event:
    """A scheduled callback.

    Events are ordered by ``(time, seq)`` where ``seq`` is a global
    insertion counter, so two events at the same instant fire in the
    order they were scheduled.  Cancelling an event is O(1): it is
    flagged and skipped when popped, and the owning simulator's live
    pending counter is decremented immediately.
    """

    __slots__ = ("time", "seq", "fn", "cancelled", "sim")

    def __init__(self, time: int, seq: int, fn: Callable[[], None], sim=None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing (safe to call twice).

        Cancelling an event that already fired is a no-op for the
        counter: ``sim`` is cleared when the event is consumed.
        """
        if not self.cancelled:
            self.cancelled = True
            if self.sim is not None:
                self.sim._pending_count -= 1
                self.sim = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time}ps seq={self.seq}{state}>"


class Simulator:
    """A discrete-event simulator with integer-picosecond time.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5]
    """

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        # Heap of (time, seq, event): tuples compare in C, and seq is
        # unique, so the event itself is never compared.
        self._queue: List[Tuple[int, int, Event]] = []
        self._events_processed = 0
        # Live count of queued, non-cancelled events.  Kept in sync by
        # schedule/pop/Event.cancel so pending() is O(1) instead of a
        # full-queue scan.
        self._pending_count = 0

    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events that have fired."""
        return self._events_processed

    def schedule(self, delay: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` picoseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn)

    def schedule_at(self, time: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at an absolute time (>= now)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        seq = self._seq
        event = Event(time, seq, fn, self)
        self._seq = seq + 1
        self._pending_count += 1
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def pending(self) -> int:
        """Number of queued, non-cancelled events (O(1))."""
        return self._pending_count

    def step(self) -> bool:
        """Fire the next event.  Returns False if the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            if event.cancelled:
                continue
            self._now = event.time
            self._events_processed += 1
            self._pending_count -= 1
            # Consumed: a cancel() arriving from inside the callback
            # (e.g. the mediator cancelling its own clock event while
            # handling it) must not decrement the counter again.
            event.sim = None
            event.fn()
            return True
        return False

    def run(
        self,
        until: Optional[int] = None,
        max_events: int = 50_000_000,
        wall_deadline: Optional[float] = None,
    ) -> None:
        """Run until the queue drains, or until absolute time ``until``.

        ``max_events`` guards against runaway feedback loops (e.g. a
        combinational ring oscillating); hitting it raises
        :class:`SimulationError` rather than hanging the test suite.

        ``wall_deadline`` is an absolute :func:`time.perf_counter`
        instant; the loop polls it every 256 events and raises
        :class:`~repro.core.errors.WallClockTimeout` once passed.  The
        check is cooperative — a single long-running callback is not
        preempted — which is exactly what campaign executors need: the
        realistic hang is a simulation that keeps making progress, and
        hard preemption belongs to the process executor's worker kill.
        """
        try:
            self._run_loop(until, max_events, wall_deadline)
        finally:
            # One guard check per run() call (not per event): the
            # scheduler's contribution to the metrics plane is the
            # event count it already maintains.
            if OBS.enabled:
                OBS.metrics.inc("sim.run_calls")
                OBS.metrics.set("sim.events_processed",
                                self._events_processed)
                OBS.metrics.set("sim.now_ps", self._now)

    def _run_loop(
        self,
        until: Optional[int],
        max_events: int,
        wall_deadline: Optional[float],
    ) -> None:
        fired = 0
        check_wall = wall_deadline is not None
        while self._queue:
            head = self._queue[0][2]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and head.time > until:
                self._now = until
                return
            self.step()
            fired += 1
            if fired > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; likely oscillation"
                )
            if check_wall and not fired & 255:
                if time.perf_counter() > wall_deadline:
                    from repro.core.errors import WallClockTimeout

                    raise WallClockTimeout(
                        f"simulation exceeded its wall-clock budget "
                        f"after {fired} events at t={self._now} ps"
                    )
        if until is not None and until > self._now:
            self._now = until

    def advance(self, delay: int) -> None:
        """Run all events in the next ``delay`` picoseconds."""
        self.run(until=self._now + delay)
