"""Hybrid event-driven / fixed-step fluid simulation engine.

File-transfer dynamics have two time scales:

* *discrete events* — transfer tasks joining or leaving, agents making
  tuning decisions at the end of each sample interval, files completing;
* *continuous flow* — every active stream's rate evolves smoothly as
  TCP ramps and resources are re-arbitrated.

The engine keeps a priority queue of timestamped events and, between
events, advances the continuous state in fixed ``dt`` steps by calling a
registered *fluid step* callback.  This mirrors how fluid network
simulators (and e.g. ns-3's hybrid models) are structured, and keeps
experiments deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.obs.events import EngineEventFired
from repro.obs.tracer import current_tracer

if TYPE_CHECKING:
    from repro.sim.profile import PerfCounters

FluidStepFn = Callable[[float, float], None]
EventFn = Callable[[], None]


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Events at the same timestamp fire in insertion order (the ``seq``
    tiebreaker), which keeps multi-agent experiments deterministic.
    """

    time: float
    seq: int
    action: EventFn = field(compare=False)
    name: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


class SimulationEngine:
    """Event queue with fluid integration between events.

    Parameters
    ----------
    dt:
        Fluid-integration step, seconds.
    fluid_step:
        Callback ``(now, dt) -> None`` advancing continuous state.  May
        be set later via :attr:`fluid_step`.

    Notes
    -----
    The engine never advances the fluid state past the next pending
    event: if an event lies mid-step, the step is shortened so state at
    the event timestamp is exact.
    """

    def __init__(
        self,
        dt: float = 0.1,
        fluid_step: Optional[FluidStepFn] = None,
    ) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = float(dt)
        self.fluid_step = fluid_step
        #: Optional :class:`~repro.sim.profile.PerfCounters` collecting
        #: per-subsystem wall time and steps/sec.  ``None`` = no profiling.
        self.profile: Optional[PerfCounters] = None
        self._now = 0.0
        self._queue: list[Event] = []
        self._seq: Iterator[int] = itertools.count()
        self._stopped = False

    def enable_profiling(self) -> "PerfCounters":
        """Attach (and return) a fresh perf-counter set to this engine."""
        from repro.sim.profile import PerfCounters

        self.profile = PerfCounters()
        return self.profile

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule_at(self, time: float, action: EventFn, name: str = "") -> Event:
        """Schedule ``action`` at absolute simulation time ``time``."""
        if time < self._now - 1e-12:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        event = Event(time=max(time, self._now), seq=next(self._seq), action=action, name=name)
        heapq.heappush(self._queue, event)
        return event

    def schedule_in(self, delay: float, action: EventFn, name: str = "") -> Event:
        """Schedule ``action`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self._now + delay, action, name)

    def schedule_every(
        self, interval: float, action: EventFn, name: str = "", start: float | None = None
    ) -> Event:
        """Schedule ``action`` periodically.  Returns the *first* event.

        Cancelling the returned event stops only the first firing; for a
        stoppable periodic task have ``action`` raise ``StopIteration``
        or re-check a flag itself.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")

        def fire() -> None:
            try:
                action()
            except StopIteration:
                return
            self.schedule_in(interval, fire, name)

        first = self._now + (interval if start is None else max(0.0, start - self._now))
        return self.schedule_at(first, fire, name)

    def stop(self) -> None:
        """Request that :meth:`run_until` return at the current time.

        A stop requested while no run is in progress (e.g. by a service
        callback firing right after the previous ``run_until`` returned)
        stays pending: the *next* ``run_until`` returns immediately
        without advancing the clock.
        """
        self._stopped = True

    def run_until(self, end_time: float) -> None:
        """Advance the simulation to ``end_time``.

        Alternates between firing due events and integrating the fluid
        state in steps of at most ``dt``.  Each call consumes at most
        one :meth:`stop` request — whether it arrived mid-run or was
        already pending at entry.
        """
        if end_time < self._now:
            raise ValueError("end_time is in the past")
        if self._stopped:
            # Honor (and consume) a stop requested between runs instead
            # of silently discarding it.
            self._stopped = False
            return
        while not self._stopped:
            next_event_time = self._peek_time()
            if next_event_time is not None and next_event_time <= self._now + 1e-12:
                self._fire_due_events()
                continue
            horizon = end_time if next_event_time is None else min(end_time, next_event_time)
            if horizon <= self._now + 1e-12:
                break
            self._advance_fluid(horizon)
        stopped = self._stopped
        self._stopped = False
        if not stopped:
            self._now = max(self._now, end_time)

    def run_for(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.run_until(self._now + duration)

    # -- internals ---------------------------------------------------------

    def _peek_time(self) -> Optional[float]:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None

    def _fire_due_events(self) -> None:
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if head.time > self._now + 1e-12:
                break
            heapq.heappop(self._queue)
            self._now = max(self._now, head.time)
            tracer = current_tracer()
            if tracer is not None:
                tracer.now = self._now
                tracer.emit(EngineEventFired, name=head.name)
            head.action()

    def _advance_fluid(self, horizon: float) -> None:
        """Integrate continuous state up to ``horizon`` in dt-steps.

        The step size is chosen so the span divides evenly (avoiding a
        tiny ragged final step), and events scheduled *by* a fluid step
        (e.g. a file completing mid-interval) fire before integration
        continues.  The remaining span is re-clamped against the event
        queue after every step: an event a fluid callback schedules
        inside the original span shortens the following steps so it
        fires exactly at its timestamp instead of on the old grid (up
        to one full step late).
        """
        while not self._stopped:
            if horizon - self._now <= 1e-12:
                self._now = max(self._now, horizon)
                return
            nxt = self._peek_time()
            target = horizon if nxt is None else min(horizon, nxt)
            span = target - self._now
            if span <= 1e-12:
                self._fire_due_events()
                continue
            steps = max(1, math.ceil(span / self.dt - 1e-9))
            step = span / steps
            tracer = current_tracer()
            if tracer is not None:
                # Events emitted *inside* the fluid callback (rebalance
                # summaries) carry the step's start time.
                tracer.now = self._now
            if self.fluid_step is not None:
                self.fluid_step(self._now, step)
            self._now += step
            if tracer is not None:
                tracer.now = self._now
            if self.profile is not None:
                self.profile.note_step(step)
            nxt = self._peek_time()
            if nxt is not None and nxt <= self._now + 1e-12:
                self._fire_due_events()
