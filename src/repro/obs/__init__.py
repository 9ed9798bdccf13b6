"""Structured observability: one deterministic, typed event trace.

Public surface:

* :func:`use_tracing` / :func:`current_tracer` — ambient enable/query,
  mirroring :func:`repro.runner.use_runner`;
* :class:`Tracer` — the emit bus (simulation-clock timestamps);
* :class:`InMemoryExporter` / :class:`JsonlExporter` /
  :func:`read_events` — sinks and round-trip loader;
* the typed event records and :data:`EVENT_TYPES` registry in
  :mod:`repro.obs.events`, documented in ``docs/events.md``.

Tracing is off by default and costs one ``None`` check per
instrumentation site when off.  No check that can fail holds that cost
to the <3% budget yet (see :mod:`repro.obs.tracer`).
The trace records changes, not steps: counts ("how many decisions,
sheds, faults") are counts of its events.
"""

from __future__ import annotations

from repro.obs.events import EVENT_TYPES, TraceEvent, from_dict
from repro.obs.exporters import InMemoryExporter, JsonlExporter, encode_event, read_events
from repro.obs.tracer import Tracer, current_tracer, use_tracing

__all__ = [
    "EVENT_TYPES",
    "TraceEvent",
    "from_dict",
    "InMemoryExporter",
    "JsonlExporter",
    "encode_event",
    "read_events",
    "Tracer",
    "current_tracer",
    "use_tracing",
]
