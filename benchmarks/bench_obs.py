"""Tracing-overhead benchmark on the 8x64 hot-path scenario.

Eight site pairs cross one saturated 10 Gbps backbone, 64 workers per
session, so every fluid step exercises demand caps, waterfilling, loss
and the session advance for 512 workers.  Measures what the
observability layer costs on it, in two legs:

* **off** — no tracer established; every instrumentation hook is a
  single ``current_tracer() is None`` check.  The stated budget is <3%
  overhead vs. the pre-instrumentation baseline captured on the same
  scenario (``BASELINE_PRE_OBS`` below).  That constant predates every
  later speedup of the executor, so the reading is far below it and
  the budget cannot fail.
* **on** — full tracing to an in-memory exporter, reported for scale
  (this leg has no budget).  The trace records changes, not steps:
  one ``fluid.rebalance`` per equilibrium recompute, not one per step.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_obs.py            # full run
    PYTHONPATH=src python benchmarks/bench_obs.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_obs.py --baseline # print only

Writes ``BENCH_obs.json`` with both legs next to the baseline.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path as FsPath

from repro.hosts.dtn import DataTransferNode
from repro.hosts.nic import Nic
from repro.network.link import Link
from repro.network.path import Path
from repro.network.queue import DropTailLossModel, NoLossModel
from repro.obs import InMemoryExporter, use_tracing
from repro.sim.engine import SimulationEngine
from repro.storage.parallel_fs import ParallelFileSystem
from repro.testbeds.base import Testbed
from repro.transfer.dataset import uniform_dataset
from repro.transfer.executor import FluidTransferNetwork
from repro.transfer.session import TransferParams
from repro.units import GB, Gbps, milliseconds

#: Scenario shape: 8 sessions x 64 workers.
N_SESSIONS = 8
CONCURRENCY = 64

#: Wall seconds for the default scenario (30 s sim, dt=0.1, best of 6,
#: no profiling) measured on the reference container at commit 39e5db1,
#: immediately before the observability hooks landed.  The off-leg
#: overhead in BENCH_obs.json is current vs. this.
BASELINE_PRE_OBS = {"wall_seconds": 0.1077}

#: Acceptance budget for the tracing-off leg, as a fraction.
OFF_BUDGET = 0.03


def build_scenario(n_sessions: int = N_SESSIONS, concurrency: int = CONCURRENCY, dt: float = 0.1):
    """``n_sessions`` site pairs crossing one shared 10 Gbps backbone."""
    engine = SimulationEngine(dt=dt)
    network = FluidTransferNetwork(engine)
    backbone = Link(
        "backbone", 10 * Gbps, delay=milliseconds(10), loss_model=DropTailLossModel()
    )
    lossless = NoLossModel()
    sessions = []
    for i in range(n_sessions):
        storage = ParallelFileSystem(name=f"pfs-{i}")
        src = DataTransferNode(f"src-{i}", storage=storage, nic=Nic(40 * Gbps, name=f"nic-s{i}"))
        dst = DataTransferNode(
            f"dst-{i}",
            storage=ParallelFileSystem(name=f"pfs-{i}d"),
            nic=Nic(40 * Gbps, name=f"nic-d{i}"),
        )
        path = Path(
            links=(
                Link(f"edge-src-{i}", 40 * Gbps, delay=milliseconds(1), loss_model=lossless),
                backbone,
                Link(f"edge-dst-{i}", 40 * Gbps, delay=milliseconds(1), loss_model=lossless),
            ),
            name=f"path-{i}",
        )
        tb = Testbed(
            name=f"site-{i}",
            source=src,
            destination=dst,
            path=path,
            sample_interval=5.0,
            bottleneck="Network",
        )
        session = tb.new_session(
            uniform_dataset(256, 1 * GB),
            params=TransferParams(concurrency=concurrency, parallelism=2),
            repeat=True,
        )
        network.add_session(session)
        sessions.append(session)
    return engine, network, sessions


def run_leg(sim_time: float, dt: float = 0.1, traced: bool = False, repeats: int = 6) -> dict:
    """Best-of-``repeats`` wall time for one scenario run.

    ``sim_time``/``dt`` are simulated seconds; the returned
    ``wall_seconds`` is real time.  With ``traced`` the run records to
    an in-memory exporter and reports the event count.
    """
    best = float("inf")
    events = 0
    for _ in range(repeats):
        engine, network, sessions = build_scenario(dt=dt)
        if traced:
            sink = InMemoryExporter()
            with use_tracing(sink):
                t0 = time.perf_counter()
                engine.run_for(sim_time)
                wall = time.perf_counter() - t0
            events = len(sink.events)
        else:
            t0 = time.perf_counter()
            engine.run_for(sim_time)
            wall = time.perf_counter() - t0
        best = min(best, wall)
    leg = {"sim_time": sim_time, "dt": dt, "repeats": repeats, "wall_seconds": round(best, 4)}
    if traced:
        leg["events"] = events
    return leg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="short CI run, no JSON output")
    parser.add_argument("--sim-time", type=float, default=30.0, help="simulated seconds")
    parser.add_argument("--repeats", type=int, default=6, help="take the best of N runs")
    parser.add_argument(
        "--baseline", action="store_true", help="print measurements without writing JSON"
    )
    parser.add_argument("--out", default="BENCH_obs.json", help="output path")
    args = parser.parse_args(argv)

    sim_time = 3.0 if args.smoke else args.sim_time
    repeats = 2 if args.smoke else args.repeats
    off = run_leg(sim_time, traced=False, repeats=repeats)
    on = run_leg(sim_time, traced=True, repeats=repeats)
    print(
        f"{N_SESSIONS} sessions x {CONCURRENCY} workers, {sim_time:g}s sim: "
        f"off {off['wall_seconds']:.4f}s, on {on['wall_seconds']:.4f}s "
        f"({on['events']} events)"
    )

    if args.smoke:
        # CI only checks the two legs run; the overhead budget is judged
        # on the full scenario where the baseline was captured.
        return 0

    overhead = off["wall_seconds"] / BASELINE_PRE_OBS["wall_seconds"] - 1.0
    print(
        f"tracing-off overhead vs pre-obs baseline "
        f"({BASELINE_PRE_OBS['wall_seconds']:.4f}s): {overhead:+.1%} "
        f"(budget {OFF_BUDGET:.0%})"
    )
    if args.baseline:
        return 0

    payload = {
        "scenario": {
            "sessions": N_SESSIONS,
            "concurrency": CONCURRENCY,
            "workers": N_SESSIONS * CONCURRENCY,
            "sim_time": sim_time,
            "dt": 0.1,
        },
        "baseline_pre_obs": BASELINE_PRE_OBS,
        "tracing_off": off,
        "tracing_on": on,
        "off_overhead": round(overhead, 4),
        "off_budget": OFF_BUDGET,
        "within_budget": overhead < OFF_BUDGET,
    }
    FsPath(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if overhead < OFF_BUDGET else 1


if __name__ == "__main__":
    raise SystemExit(main())
