"""Lightweight wall-time accounting for the simulator hot path.

:class:`PerfCounters` accumulates wall seconds per named subsystem
(demand caps, waterfill, loss, session step, ...) plus the fluid-step
count, so a run can report where simulation time actually goes and how
many fluid steps per wall second the engine sustains.  Attach one to an
engine with :meth:`SimulationEngine.enable_profiling`; the executor
times its subsystems whenever one is attached, and skips all timing
when it is not (``engine.profile is None`` costs one attribute check
per step).

The counters are deliberately simple — a dict of float accumulators
driven by :func:`time.perf_counter` — so the measurement overhead stays
far below the measured quantities (a fluid step on the benchmark
scenario costs milliseconds; a timer pair costs ~100 ns).
"""

from __future__ import annotations

# repro: lint-ok-file[F001,F012]: this module's entire purpose is wall-clock
# measurement; it observes the simulator and never feeds sim state.

import time

from repro.units import seconds_to_us


class PerfCounters:
    """Per-subsystem wall-time accumulators and fluid-step throughput."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.fluid_steps: int = 0
        self.sim_seconds: float = 0.0
        self._wall_start = time.perf_counter()

    # -- recording ----------------------------------------------------------

    def add(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` of wall time under ``name``."""
        self.totals[name] = self.totals.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + 1

    def note_step(self, dt: float) -> None:
        """Record one completed fluid step of size ``dt``."""
        self.fluid_steps += 1
        self.sim_seconds += dt

    # -- reporting ----------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        """Wall time since this counter set was created."""
        return time.perf_counter() - self._wall_start

    def steps_per_second(self) -> float:
        """Fluid steps per wall second since creation."""
        wall = self.wall_seconds
        return self.fluid_steps / wall if wall > 0 else 0.0

    def report(self) -> str:
        """Human-readable table of where wall time went."""
        lines = [
            f"fluid steps: {self.fluid_steps} "
            f"({self.sim_seconds:.1f} sim-s, {self.steps_per_second():.0f} steps/s)"
        ]
        for name in sorted(self.totals, key=self.totals.get, reverse=True):
            total = self.totals[name]
            calls = self.counts[name]
            per_call = seconds_to_us(total / calls) if calls else 0.0
            lines.append(
                f"  {name:<14} {total:8.4f}s  {calls:>7} calls  {per_call:8.1f} us/call"
            )
        return "\n".join(lines)
