"""Reconstruct run timelines from a structured trace.

A JSONL trace (``repro trace <experiment>`` or any
:class:`~repro.obs.exporters.JsonlExporter` output) is a flat event
stream; this module folds it back into per-session time series —
throughput, utility, concurrency — plus a whole-trace summary table,
so a run can be plotted or diffed without re-simulating.

All times are simulation seconds, throughputs bits per second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.obs.events import (
    MonitorSampleTaken,
    OptimizerDecision,
    SessionComplete,
    SessionStart,
    TraceEvent,
    UtilityEvaluated,
)
from repro.obs.exporters import read_events


@dataclass
class SessionTimeline:
    """Time series for one session, folded from its trace events.

    ``sample_times``/``throughput_bps``/``loss_rate`` come from monitor
    samples (one point per decision interval); ``utilities`` aligns with
    ``utility_times``; ``concurrency`` is the step series of optimizer
    decisions.  Times are simulation seconds.
    """

    session: str
    started_at: float | None = None
    finished_at: float | None = None
    sample_times: list[float] = field(default_factory=list)
    throughput_bps: list[float] = field(default_factory=list)
    loss_rate: list[float] = field(default_factory=list)
    utility_times: list[float] = field(default_factory=list)
    utilities: list[float] = field(default_factory=list)
    decision_times: list[float] = field(default_factory=list)
    concurrency: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Seconds from session start to completion (0.0 if unknown)."""
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at


def build_timelines(events: Iterable[TraceEvent]) -> dict[str, SessionTimeline]:
    """Fold an event stream into per-session timelines.

    Sessions appear in first-seen order; events of types that carry no
    session (engine events, faults, jobs) are ignored here — see
    :func:`summarize` for the whole-trace view.
    """
    timelines: dict[str, SessionTimeline] = {}

    def get(name: str) -> SessionTimeline:
        tl = timelines.get(name)
        if tl is None:
            tl = timelines[name] = SessionTimeline(session=name)
        return tl

    for ev in events:
        if isinstance(ev, SessionStart):
            get(ev.session).started_at = ev.time
        elif isinstance(ev, MonitorSampleTaken):
            tl = get(ev.session)
            tl.sample_times.append(ev.time)
            tl.throughput_bps.append(ev.throughput_bps)
            tl.loss_rate.append(ev.loss_rate)
        elif isinstance(ev, UtilityEvaluated):
            tl = get(ev.session)
            tl.utility_times.append(ev.time)
            tl.utilities.append(ev.utility)
        elif isinstance(ev, OptimizerDecision):
            tl = get(ev.session)
            tl.decision_times.append(ev.time)
            tl.concurrency.append(ev.concurrency)
        elif isinstance(ev, SessionComplete):
            get(ev.session).finished_at = ev.time
    return timelines


def load_timelines(path: str | Path) -> dict[str, SessionTimeline]:
    """Read a JSONL trace file and fold it into session timelines."""
    return build_timelines(read_events(path))


@dataclass(frozen=True)
class EventSummary:
    """One row of a trace summary: how often one event type fired."""

    type: str
    count: int
    #: Simulation time of the first and last occurrence, seconds.
    first: float = 0.0
    last: float = 0.0


def summarize(events: Sequence[TraceEvent]) -> list[EventSummary]:
    """Per-event-type counts and time spans, sorted by type name.

    The ``repro trace`` summary table is this list rendered; times are
    simulation seconds.
    """
    spans: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    for ev in events:
        counts[ev.type] = counts.get(ev.type, 0) + 1
        span = spans.get(ev.type)
        if span is None:
            spans[ev.type] = [ev.time, ev.time]
        else:
            if ev.time < span[0]:
                span[0] = ev.time
            if ev.time > span[1]:
                span[1] = ev.time
    return [
        EventSummary(type=name, count=counts[name], first=spans[name][0], last=spans[name][1])
        for name in sorted(counts)
    ]
