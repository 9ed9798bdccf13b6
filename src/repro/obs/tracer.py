"""The ambient tracing bus: ``Tracer``, ``current_tracer``, ``use_tracing``.

Mirrors the runner's ambient-configuration pattern
(:func:`repro.runner.use_runner`): instrumentation sites never receive
a tracer argument — they ask :func:`current_tracer` and skip all work
when it returns ``None``.  That single ``None`` check is the entire
disabled-path cost.  The <3% tracing-off budget has no check that can
fail: the hot-path bench it was stated on no longer exists, and
``benchmarks/bench_obs.py`` compares against a stale constant, so its
budget cannot trip until it is restated as a perfbench law.

Timestamps come from the simulation clock, never the wall clock: the
engine pushes its ``now`` into :attr:`Tracer.now` as it advances, so
events emitted from inside callbacks inherit the correct sim time and
same-seed traces are byte-identical.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional, Protocol, Type

from repro.obs.events import TraceEvent


class Exporter(Protocol):
    """Anything that can receive emitted events (JSONL file, memory)."""

    def export(self, event: TraceEvent) -> None:
        """Record one emitted event."""
        ...


class Tracer:
    """Event sink for one traced run.

    ``now`` is the current simulation time in seconds; the engine
    updates it as the clock advances, and :meth:`emit` stamps events
    with it unless the call site passes an explicit ``t``.
    """

    __slots__ = ("exporters", "now")

    def __init__(self, *exporters: Exporter) -> None:
        self.exporters: tuple[Exporter, ...] = exporters
        #: Simulation clock, seconds; pushed by the engine as it advances.
        self.now = 0.0

    def emit(self, cls: Type[TraceEvent], t: float | None = None, **fields: Any) -> TraceEvent:
        """Build one ``cls`` event and hand it to every exporter.

        The event is stamped with :attr:`now` (simulation seconds)
        unless ``t`` overrides it — e.g. a completion that lands
        mid-step at ``now + dt``.  Returns the frozen record.
        """
        event = cls(time=self.now if t is None else t, **fields)
        for exporter in self.exporters:
            exporter.export(event)
        return event


# The ambient tracer.  ``None`` means tracing is off: instrumentation
# sites see ``current_tracer() is None`` and do no further work.
_ACTIVE: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The ambient tracer, or ``None`` when tracing is disabled."""
    return _ACTIVE


@contextmanager
def use_tracing(*exporters: Exporter) -> Iterator[Tracer]:
    """Enable tracing for a ``with`` block, yielding the live tracer.

    Nested blocks stack: the inner tracer wins until its block exits,
    then the outer one is restored — matching ``use_runner``.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = Tracer(*exporters)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
