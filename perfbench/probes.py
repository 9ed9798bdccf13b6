"""Probes the benchmark attaches to the program from outside.

Nothing under ``src/`` is changed.  The benchmark replaces public
methods on their classes (and a public function in the modules that
imported it) with thin wrappers, and puts the originals back when it
is done:

* :class:`SimSeconds` (every run) adds up the simulated seconds each
  ``SimulationEngine.run_until`` call advances;
* :func:`tick_on_fluid_steps` (every run) lets the timing clock end a
  segment between two fluid steps (see harness.py);
* :class:`JobLog` (every run) keeps the jobs returned by the outermost
  control-plane ``submit`` call, so the output checks can see each job;
* :class:`Spans` (traced runs only) times calls into each layer.

A wrapper costs well under a microsecond per call; the untraced
probes add about 0.5% to a pass of the busiest workload.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import ExitStack, contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator


@contextmanager
def patched(owner: Any, name: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.name`` by ``make(original)`` for a ``with`` block."""
    original = owner.__dict__[name]
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextmanager
def patched_function(original: Callable, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace a module-level function in every ``repro`` module bound to it.

    Modules import functions by name (``from repro.runner import
    run_tasks``), so each binding is swapped, not only the defining one.
    """
    wrapper = make(original)
    bound = [
        (module, attr)
        for mod_name, module in list(sys.modules.items())
        if mod_name == "repro" or mod_name.startswith("repro.")
        for attr, value in list(vars(module).items())
        if value is original
    ]
    for module, attr in bound:
        setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr in bound:
            setattr(module, attr, original)


class SimSeconds:
    """Simulated seconds advanced by every engine's ``run_until``."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def install(self, stack: ExitStack) -> None:
        """Wrap ``SimulationEngine.run_until`` until ``stack`` closes."""
        from repro.sim.engine import SimulationEngine

        def make(run_until: Callable) -> Callable:
            @functools.wraps(run_until)
            def counted(engine: Any, end_time: float) -> None:
                before = engine.now
                try:
                    run_until(engine, end_time)
                finally:
                    self.seconds += engine.now - before

            return counted

        stack.enter_context(patched(SimulationEngine, "run_until", make))


def tick_on_fluid_steps(stack: ExitStack, tick: Callable[[], None]) -> None:
    """Call ``tick()`` before every fluid step until ``stack`` closes.

    A network binds ``fluid_step`` into its engine when it is built, so
    this must be installed before the workload builds any network.
    """
    from repro.transfer.executor import FluidTransferNetwork

    def make(fluid_step: Callable) -> Callable:
        @functools.wraps(fluid_step)
        def ticked(network: Any, now: float, dt: float) -> None:
            tick()
            fluid_step(network, now, dt)

        return ticked

    stack.enter_context(patched(FluidTransferNetwork, "fluid_step", make))


class JobLog:
    """Jobs returned by the outermost control-plane ``submit`` calls.

    ``ShardedControlPlane.submit`` calls a shard's ``ControlPlane.submit``
    inside it; only the outer call's job is kept, once.  ``planes``
    holds each plane object that accepted a submission, in first-use
    order, so a caller can reach a sharded plane's shards.
    """

    def __init__(self) -> None:
        self.jobs: list[Any] = []
        self.planes: list[Any] = []
        self._depth = 0

    def clear(self) -> None:
        """Forget everything recorded so far."""
        self.jobs = []
        self.planes = []

    def install(self, stack: ExitStack) -> None:
        """Wrap both planes' ``submit`` until ``stack`` closes."""
        from repro.service.control import ControlPlane
        from repro.service.sharding import ShardedControlPlane

        def make(submit: Callable) -> Callable:
            @functools.wraps(submit)
            def logged(plane: Any, *args: Any, **kwargs: Any) -> Any:
                self._depth += 1
                try:
                    job = submit(plane, *args, **kwargs)
                finally:
                    self._depth -= 1
                if self._depth == 0:
                    self.jobs.append(job)
                    if all(p is not plane for p in self.planes):
                        self.planes.append(plane)
                return job

            return logged

        stack.enter_context(patched(ControlPlane, "submit", make))
        stack.enter_context(patched(ShardedControlPlane, "submit", make))


class MethodStats:
    """Calls, busy time and self time of one wrapped callable."""

    __slots__ = ("calls", "busy_s", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Spans:
    """Per-layer spans around calls into the program's public functions.

    A span's self time is its duration minus the time its child spans
    cover, so the self times of all layers add up to the time spent
    inside any span, with nothing counted twice.  Busy time counts only
    the outermost call of a method, so recursion is not counted twice.
    """

    def __init__(self) -> None:
        self.methods: dict[str, MethodStats] = {}
        self.layer_of: dict[str, str] = {}
        self.task_count = 0
        self._stack: list[list[float]] = []

    def wrapper(self, layer: str, key: str) -> Callable[[Callable], Callable]:
        """A ``make`` function for :func:`patched` that spans ``key``."""
        stats = self.methods.setdefault(key, MethodStats())
        self.layer_of[key] = layer
        stack = self._stack

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def spanned(*args: Any, **kwargs: Any) -> Any:
                children = [0.0]
                stack.append(children)
                stats.depth += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - t0
                    stack.pop()
                    stats.depth -= 1
                    stats.calls += 1
                    stats.self_s += duration - children[0]
                    if stats.depth == 0:
                        stats.busy_s += duration
                    if stack:
                        stack[-1][0] += duration

            return spanned

        return make

    def summary(self) -> dict:
        """Every wrapped callable's layer, calls, busy and self seconds."""
        return {
            key: {
                "layer": self.layer_of[key],
                "calls": s.calls,
                "busy_s": s.busy_s,
                "self_s": s.self_s,
            }
            for key, s in sorted(self.methods.items())
        }

    def calls(self, key: str) -> int:
        """Calls made to one wrapped callable (count)."""
        return self.methods[key].calls

    def busy(self, key: str) -> float:
        """Busy seconds of one wrapped callable."""
        return self.methods[key].busy_s

    def _in(self, layer: str) -> list[MethodStats]:
        return [s for key, s in self.methods.items() if self.layer_of[key] == layer]

    def layer_calls(self, layer: str) -> int:
        """Calls made to every callable in ``layer`` (count)."""
        return sum(s.calls for s in self._in(layer))

    def layer_busy(self, layer: str) -> float:
        """Busy seconds of every callable in ``layer``."""
        return sum(s.busy_s for s in self._in(layer))

    def layer_self(self, layer: str) -> float:
        """Self seconds of every callable in ``layer``."""
        return sum(s.self_s for s in self._in(layer))

    def attributed(self) -> float:
        """Seconds inside any span: the sum of every layer's self time."""
        return sum(s.self_s for s in self.methods.values())

    def install(self, stack: ExitStack) -> None:
        """Wrap each layer's public entry points until ``stack`` closes."""
        from repro.core.agent import FalconAgent
        from repro.core.optimizer import ConcurrencyOptimizer, MultiParamOptimizer
        from repro.runner import executor as runner_executor
        from repro.service.control import ControlPlane
        from repro.service.service import FalconService
        from repro.service.sharding import ShardedControlPlane, ShardRouter
        from repro.sim.batch import BatchStore
        from repro.sim.engine import SimulationEngine
        from repro.transfer.executor import FluidTransferNetwork

        def on(owner: type, name: str, layer: str) -> None:
            key = f"{owner.__name__}.{name}"
            stack.enter_context(patched(owner, name, self.wrapper(layer, key)))

        def counting_tasks(make: Callable) -> Callable:
            def wrap(run_tasks: Callable) -> Callable:
                inner = make(run_tasks)

                @functools.wraps(run_tasks)
                def counted(tasks: Any, *args: Any, **kwargs: Any) -> Any:
                    self.task_count += len(tasks)
                    return inner(tasks, *args, **kwargs)

                return counted

            return wrap

        stack.enter_context(
            patched_function(
                runner_executor.run_tasks,
                counting_tasks(self.wrapper("runner", "run_tasks")),
            )
        )
        on(ControlPlane, "submit", "control")
        on(ShardRouter, "place", "router")
        on(ShardedControlPlane, "submit", "sharding")
        on(ShardedControlPlane, "run_until", "sharding")
        for name in ("submit", "start_job", "preempt", "cancel"):
            on(FalconService, name, "service")
        for name in ("fluid_step", "add_session", "remove_session"):
            on(FluidTransferNetwork, name, "executor")
        on(BatchStore, "step", "batch")
        on(SimulationEngine, "run_until", "engine")
        for cls in _subclasses(FalconAgent):
            if "decide" in cls.__dict__:
                on(cls, "decide", "agent")
        for base in (ConcurrencyOptimizer, MultiParamOptimizer):
            for cls in _subclasses(base):
                if "update" in cls.__dict__:
                    on(cls, "update", "optimizer")


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every subclass defined so far, parents first."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


class EventCounts:
    """In-memory exporter that keeps only a count per event type."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def export(self, event: Any) -> None:
        """Count one emitted event under its wire name."""
        self.counts[event.type] += 1


class Profiles:
    """Turns on every new engine's ``PerfCounters`` and keeps them."""

    def __init__(self) -> None:
        self.counters: list[Any] = []

    def install(self, stack: ExitStack) -> None:
        """Wrap ``SimulationEngine.__init__`` until ``stack`` closes."""
        from repro.sim.engine import SimulationEngine

        def make(init: Callable) -> Callable:
            @functools.wraps(init)
            def profiled(engine: Any, *args: Any, **kwargs: Any) -> None:
                init(engine, *args, **kwargs)
                self.counters.append(engine.enable_profiling())

            return profiled

        stack.enter_context(patched(SimulationEngine, "__init__", make))

    def total(self, subsystem: str) -> float:
        """Seconds one executor sub-step took, over every engine."""
        return sum(c.totals.get(subsystem, 0.0) for c in self.counters)
