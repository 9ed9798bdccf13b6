"""Ambient tracer behaviour: enable/disable, nesting, timestamps."""

from __future__ import annotations

from repro.obs import InMemoryExporter, Tracer, current_tracer, use_tracing
from repro.obs.events import EngineEventFired, SessionComplete


class TestAmbient:
    def test_tracing_is_off_by_default(self):
        assert current_tracer() is None

    def test_use_tracing_establishes_and_restores(self):
        with use_tracing() as tracer:
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_nested_blocks_stack(self):
        with use_tracing() as outer:
            with use_tracing() as inner:
                assert current_tracer() is inner
            assert current_tracer() is outer

    def test_restores_on_exception(self):
        try:
            with use_tracing():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_tracer() is None


class TestEmit:
    def test_emit_fans_out_to_all_exporters(self):
        a, b = InMemoryExporter(), InMemoryExporter()
        tracer = Tracer(a, b)
        tracer.emit(EngineEventFired, name="tick")
        assert a.events == b.events == [EngineEventFired(time=0.0, name="tick")]

    def test_emit_stamps_with_tracer_now(self):
        mem = InMemoryExporter()
        tracer = Tracer(mem)
        tracer.now = 42.5
        ev = tracer.emit(EngineEventFired, name="tick")
        assert ev.time == 42.5

    def test_explicit_t_overrides_now(self):
        mem = InMemoryExporter()
        tracer = Tracer(mem)
        tracer.now = 10.0
        ev = tracer.emit(SessionComplete, t=10.05, session="s")
        assert ev.time == 10.05
