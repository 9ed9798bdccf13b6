"""Simulation engine tests: event ordering, fluid stepping, periodic tasks."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationEngine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        eng = SimulationEngine(dt=0.1)
        fired = []
        eng.schedule_at(2.0, lambda: fired.append("b"))
        eng.schedule_at(1.0, lambda: fired.append("a"))
        eng.schedule_at(3.0, lambda: fired.append("c"))
        eng.run_until(5.0)
        assert fired == ["a", "b", "c"]

    def test_same_time_insertion_order(self):
        eng = SimulationEngine(dt=0.1)
        fired = []
        for tag in "abc":
            eng.schedule_at(1.0, lambda t=tag: fired.append(t))
        eng.run_until(2.0)
        assert fired == ["a", "b", "c"]

    def test_schedule_in_relative(self):
        eng = SimulationEngine(dt=0.1)
        seen = []
        eng.schedule_in(0.5, lambda: seen.append(eng.now))
        eng.run_until(1.0)
        assert seen == [pytest.approx(0.5)]

    def test_cannot_schedule_in_past(self):
        eng = SimulationEngine(dt=0.1)
        eng.run_until(1.0)
        with pytest.raises(ValueError):
            eng.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        eng = SimulationEngine(dt=0.1)
        with pytest.raises(ValueError):
            eng.schedule_in(-1.0, lambda: None)

    def test_cancelled_event_skipped(self):
        eng = SimulationEngine(dt=0.1)
        fired = []
        event = eng.schedule_at(1.0, lambda: fired.append("x"))
        event.cancel()
        eng.run_until(2.0)
        assert fired == []

    def test_event_scheduling_event(self):
        eng = SimulationEngine(dt=0.1)
        fired = []
        eng.schedule_at(1.0, lambda: eng.schedule_at(1.5, lambda: fired.append("n")))
        eng.run_until(2.0)
        assert fired == ["n"]

    def test_now_advances_to_end(self):
        eng = SimulationEngine(dt=0.1)
        eng.run_until(3.7)
        assert eng.now == pytest.approx(3.7)

    def test_run_for(self):
        eng = SimulationEngine(dt=0.1)
        eng.run_for(1.0)
        eng.run_for(1.5)
        assert eng.now == pytest.approx(2.5)

    def test_run_until_past_rejected(self):
        eng = SimulationEngine(dt=0.1)
        eng.run_until(2.0)
        with pytest.raises(ValueError):
            eng.run_until(1.0)


class TestFluidIntegration:
    def test_fluid_step_called_with_dt(self):
        steps = []
        eng = SimulationEngine(dt=0.25, fluid_step=lambda now, dt: steps.append((now, dt)))
        eng.run_until(1.0)
        assert len(steps) == 4
        assert all(dt == pytest.approx(0.25) for _, dt in steps)

    def test_fluid_time_covers_span(self):
        total = []
        eng = SimulationEngine(dt=0.3, fluid_step=lambda now, dt: total.append(dt))
        eng.run_until(1.0)
        assert sum(total) == pytest.approx(1.0)

    def test_step_shortened_before_event(self):
        """State at an event timestamp must be integrated exactly."""
        covered = []
        eng = SimulationEngine(dt=1.0, fluid_step=lambda now, dt: covered.append((now, dt)))
        boundary = []
        eng.schedule_at(0.5, lambda: boundary.append(sum(dt for _, dt in covered)))
        eng.run_until(1.0)
        assert boundary == [pytest.approx(0.5)]

    def test_event_during_fluid_advance(self):
        eng = SimulationEngine(dt=0.1)
        marks = []

        def fluid(now, dt):
            if not marks and now >= 0.35:
                eng.schedule_in(0.0, lambda: marks.append(eng.now))

        eng.fluid_step = fluid
        eng.run_until(1.0)
        assert marks and marks[0] < 1.0

    def test_fluid_scheduled_event_fires_on_time(self):
        """An event scheduled *by* the fluid callback inside the current
        span must fire at its timestamp, not on the old step grid (the
        pre-clamp behaviour fired it up to one full step late)."""
        eng = SimulationEngine(dt=0.1)
        fired = []
        scheduled = []

        def fluid(now, dt):
            if not scheduled:
                scheduled.append(True)
                eng.schedule_at(0.25, lambda: fired.append(eng.now))

        eng.fluid_step = fluid
        eng.run_until(1.0)
        assert fired == [pytest.approx(0.25)]

    def test_fluid_steps_shorten_toward_scheduled_event(self):
        """Integration lands exactly on a mid-span event boundary."""
        eng = SimulationEngine(dt=0.1)
        covered = []

        def fluid(now, dt):
            covered.append((now, dt))
            if len(covered) == 1:
                eng.schedule_at(0.25, lambda: None)

        eng.fluid_step = fluid
        eng.run_until(1.0)
        boundaries = [now + dt for now, dt in covered]
        assert any(b == pytest.approx(0.25, abs=1e-9) for b in boundaries)
        assert sum(dt for _, dt in covered) == pytest.approx(1.0)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            SimulationEngine(dt=0.0)


class TestStop:
    """``stop()`` ends a run early, and a pending stop is consumed once."""

    def test_stop_interrupts_run(self):
        eng = SimulationEngine(dt=0.1)
        eng.schedule_at(1.0, eng.stop)
        eng.run_until(10.0)
        assert eng.now < 10.0

    def test_pending_stop_between_runs_is_honored(self):
        # A stop() requested after run_until returned (e.g. by a service
        # callback reacting to the finished run) must not be silently
        # discarded by the next run_until.
        eng = SimulationEngine(dt=0.1)
        eng.run_until(1.0)
        eng.stop()
        eng.run_until(5.0)
        assert eng.now == 1.0  # returned immediately, clock untouched

    def test_pending_stop_is_consumed_by_one_run(self):
        eng = SimulationEngine(dt=0.1)
        eng.stop()
        eng.run_until(2.0)
        assert eng.now == 0.0
        eng.run_until(2.0)  # the stop was consumed; this run proceeds
        assert eng.now == 2.0

    def test_mid_run_stop_does_not_leak_into_next_run(self):
        # A stop that interrupted one run must not also abort the next
        # (stop/resume is how the service pauses the engine).
        eng = SimulationEngine(dt=0.1)
        eng.schedule_at(1.0, eng.stop)
        eng.run_until(10.0)
        stopped_at = eng.now
        eng.run_until(10.0)
        assert stopped_at < 10.0
        assert eng.now == 10.0


class TestPeriodic:
    def test_schedule_every_fires_repeatedly(self):
        eng = SimulationEngine(dt=0.1)
        ticks = []
        eng.schedule_every(1.0, lambda: ticks.append(eng.now))
        eng.run_until(5.5)
        assert len(ticks) == 5
        assert ticks[0] == pytest.approx(1.0)
        assert ticks[-1] == pytest.approx(5.0)

    def test_schedule_every_stops_on_stopiteration(self):
        eng = SimulationEngine(dt=0.1)
        ticks = []

        def tick():
            ticks.append(eng.now)
            if len(ticks) >= 3:
                raise StopIteration

        eng.schedule_every(1.0, tick)
        eng.run_until(10.0)
        assert len(ticks) == 3

    def test_schedule_every_custom_start(self):
        eng = SimulationEngine(dt=0.1)
        ticks = []
        eng.schedule_every(1.0, lambda: ticks.append(eng.now), start=2.5)
        eng.run_until(5.0)
        assert ticks[0] == pytest.approx(2.5)

    def test_invalid_interval(self):
        eng = SimulationEngine(dt=0.1)
        with pytest.raises(ValueError):
            eng.schedule_every(0.0, lambda: None)
