"""The three workloads: their inputs, operations and output checks.

A workload builds its inputs once from the seed (:meth:`setup`), then
hands out one pass as a list of operations (:meth:`operations`); each
operation's output goes to :meth:`check`, outside the timed region,
and is dropped before the next operation runs.  Every pass of a run
repeats the same operations on the same inputs.
"""

from __future__ import annotations

import importlib
import inspect
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

import checks

if TYPE_CHECKING:
    from harness import Timed
    from probes import JobLog


class Outcome:
    """Operations attempted and failed so far, and why.

    ``failures`` explains each failed operation.  ``problems`` holds
    broken laws that belong to no single operation (a leg's totals);
    any of them makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def op(self, failure: str | None) -> None:
        """Count one operation; ``failure`` says why it failed, if it did."""
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.failures.append(failure)

    @property
    def correct(self) -> bool:
        """Every operation that did not fail passed its checks."""
        return not self.problems


def _error(name: str, exc: BaseException) -> str:
    return f"{name}: raised {type(exc).__name__}: {exc}"


class PaperFigures:
    """The figure and table experiments of the quick profile.

    One operation is one experiment run and rendered, exactly as
    ``repro run --all --quick`` runs it but with the workload's seed.
    ``table1``, ``fig01`` and ``fig04`` take no seed and are the same
    on every seed.  Left out besides ``open-workload`` (a workload of
    its own): see :data:`LEFT_OUT`.
    """

    name = "paper-figures"
    #: Experiments that report the agent's jittered throughput
    #: measurement as steady throughput; on some seeds it exceeds the
    #: testbed's achievable maximum (fig10 on 3 of 30 seeds, related-work
    #: on 4 of 30), so the capacity check fails on those seeds only.
    #: fig09 runs the same task function as fig10.
    LEFT_OUT = ("open-workload", "fig09", "fig10", "related-work")
    #: The first pass runs ~15% slower (lazy imports, first calls).
    WARM_UP = True

    def setup(self, seed: int, joblog: JobLog) -> None:
        """Import every experiment and fix its quick-profile arguments."""
        from repro.experiments import REGISTRY
        from repro.runner.suite import QUICK_PROFILE

        self.experiments: list[tuple[str, Callable[[], Any]]] = []
        for name, module_path in REGISTRY.items():
            if name in self.LEFT_OUT:
                continue
            run = importlib.import_module(module_path).run
            kwargs = dict(QUICK_PROFILE[name])
            if "seed" in inspect.signature(run).parameters:
                kwargs["seed"] = seed
            self.experiments.append((name, partial(run, **kwargs)))

    def operations(self) -> list[Callable[[], Any]]:
        """One operation per experiment: run it, then render it."""
        return [partial(_run_and_render, run) for _name, run in self.experiments]

    def check(self, index: int, timed: Timed, outcome: Outcome) -> None:
        """An experiment that raised or broke a law failed."""
        name = self.experiments[index][0]
        if timed.error is not None:
            outcome.op(_error(name, timed.error))
            return
        problems = checks.check_figure(name, *timed.output)
        outcome.op("; ".join(problems) if problems else None)


def _run_and_render(run: Callable[[], Any]) -> tuple[Any, str]:
    result = run()
    render = getattr(result, "render", None)
    return result, render() if callable(render) else str(result)


class OpenWorkload:
    """The four legs of ``repro.experiments.open_workload``, quick profile.

    One timed operation is one leg, called through the same task
    function and arguments ``open_workload.run`` uses; one counted
    operation is one simulated job.  A pass runs every leg for two
    experiment seeds, ``2 * seed`` and ``2 * seed + 1``: the seed
    drives the Poisson arrivals, the job sizes and the chaos plan of
    ``flaky-network``, so the amount of work moves with it, and two
    draws per pass halve that variation.
    """

    name = "open-workload"
    SEEDS_PER_PASS = 2
    #: Set-up imports every leg's code; the first pass runs no slower.
    WARM_UP = False

    def setup(self, seed: int, joblog: JobLog) -> None:
        """Fix every leg's arguments from the experiment's leg table."""
        from repro.experiments import open_workload as ow
        from repro.runner.suite import QUICK_PROFILE

        self.joblog = joblog
        quick = QUICK_PROFILE["open-workload"]
        horizon = quick["horizon"]
        rate = quick["rate_per_hour"]
        max_active = inspect.signature(ow.run).parameters["max_active"].default
        shard_leg, n_shards, rate_mult = ow.SHARD_LEG
        self.tenants = ow.TENANTS
        self.legs: list[tuple[str, Callable[[], Any]]] = []
        for leg_seed in range(self.SEEDS_PER_PASS * seed, self.SEEDS_PER_PASS * (seed + 1)):
            common = dict(seed=leg_seed, horizon=horizon, max_active=max_active)
            for leg, rho, preset in ow.LEGS:
                run = partial(
                    ow.workload_run, leg=leg, rate_per_hour=rate, rho=rho, preset=preset, **common
                )
                self.legs.append((f"{leg}/seed{leg_seed}", run))
            run = partial(
                ow.sharded_run,
                leg=shard_leg,
                rate_per_hour=rate * rate_mult,
                n_shards=n_shards,
                **common,
            )
            self.legs.append((f"{shard_leg}/seed{leg_seed}", run))

    def operations(self) -> list[Callable[[], Any]]:
        """One operation per leg; each returns the leg and its jobs."""
        return [partial(self._leg, run) for _name, run in self.legs]

    def _leg(self, run: Callable[[], Any]) -> tuple[Any, list[Any], list[Any]]:
        self.joblog.clear()
        result = run()
        return result, self.joblog.jobs, self.joblog.planes

    def check(self, index: int, timed: Timed, outcome: Outcome) -> None:
        """Count each job; a broken leg-level law makes the run incorrect."""
        from repro.service import ShardedControlPlane

        name = self.legs[index][0]
        if timed.error is not None:
            outcome.op(_error(name, timed.error))
            return
        run, jobs, planes = timed.output
        self.joblog.clear()
        for job in jobs:
            outcome.op(checks.job_problem(job))
        shards = None
        if len(planes) == 1 and isinstance(planes[0], ShardedControlPlane):
            shards = [(s.name, list(s.service.jobs)) for s in planes[0].shards]
        outcome.problems += [f"{name}: {p}" for p in checks.check_leg(run, jobs, self.tenants, shards)]


class MetroWindow:
    """The 256-session x 64-worker metro ring over a fixed 20 s window.

    One operation is one pass: build the ring's sessions, run the
    window at fixed dt, read each session's delivered bytes.  Nothing
    in the scenario is random, so the inputs are the same on every
    seed.
    """

    name = "metro-window"
    WARM_UP = True
    #: Simulated seconds per pass, and the fixed fluid step.
    WINDOW = 20.0
    DT = 0.1
    SITES = 16
    SESSIONS_PER_SITE = 16
    CONCURRENCY = 64
    PARALLELISM = 2
    FILES = 256

    def setup(self, seed: int, joblog: JobLog) -> None:
        """Import the scenario's modules; the ring itself is built per pass."""
        importlib.import_module("repro.testbeds.presets")
        importlib.import_module("repro.transfer.executor")

    def operations(self) -> list[Callable[[], Any]]:
        """A single operation: one window over a freshly built ring."""
        return [self._window]

    def _window(self) -> tuple[list[tuple[int, str, str, float]], dict, dict]:
        from repro.sim.engine import SimulationEngine
        from repro.testbeds.presets import metro
        from repro.transfer.dataset import uniform_dataset
        from repro.transfer.executor import FluidTransferNetwork
        from repro.transfer.session import TransferParams
        from repro.units import GB

        engine = SimulationEngine(dt=self.DT)
        network = FluidTransferNetwork(engine)
        params = TransferParams(concurrency=self.CONCURRENCY, parallelism=self.PARALLELISM)
        placed = []
        for tb in metro(n_sites=self.SITES, sessions_per_site=self.SESSIONS_PER_SITE):
            session = tb.new_session(
                uniform_dataset(self.FILES, 1 * GB), params=params, repeat=True
            )
            network.add_session(session)
            placed.append((tb, session))
        engine.run_until(self.WINDOW)
        sessions = [
            (len(tb.path.links), tb.source.name, tb.destination.name, s.total_good_bytes)
            for tb, s in placed
        ]
        reads = {tb.source.name: tb.source.storage.aggregate_read_bps for tb, _ in placed}
        writes = {
            tb.destination.name: tb.destination.storage.aggregate_write_bps for tb, _ in placed
        }
        return sessions, reads, writes

    def check(self, index: int, timed: Timed, outcome: Outcome) -> None:
        """The pass fails if it raised or broke a law of the ring."""
        if timed.error is not None:
            outcome.op(_error(self.name, timed.error))
            return
        problems = checks.check_metro(*timed.output, window=self.WINDOW)
        outcome.op("; ".join(problems) if problems else None)


WORKLOADS = {w.name: w for w in (PaperFigures, OpenWorkload, MetroWindow)}
