"""Scale benchmark: the 256-session x 64-worker metro ring scenario.

Times the batched fluid engine (`repro.sim.batch.BatchStore`), at
fixed dt and with adaptive stepping, on the
`repro.testbeds.presets.metro` scenario — 16 shared sites, 16 384
workers, ~80 shared resources, every ring link carrying dozens of
overlapping sessions.  At this scale per-session numpy dispatch would
grow linearly with the session count; the batched store advances all
sessions in one pass.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_scale.py            # full run
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_scale.py --baseline # print only

Writes ``BENCH_scale.json`` pinning both stepping modes on the same
scenario; the adaptive bar is ``speedup_adaptive >= 5`` at
``total_good_bytes`` matching the fixed-dt oracle within rtol 1e-6
(plus byte-identical same-seed replay).

The ``--smoke`` mode runs short batched slices (fixed-dt and adaptive)
and exits nonzero on any of: the wall-clock budget, the adaptive
speedup floor, or the fixed-dt path regressing more than
``--baseline-tolerance`` below the steps/sec pinned in
``BENCH_scale.json``.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path as FsPath

from repro.sim.engine import SimulationEngine
from repro.testbeds.presets import metro
from repro.transfer.dataset import uniform_dataset
from repro.transfer.executor import FluidTransferNetwork
from repro.transfer.session import TransferParams
from repro.units import GB

#: Scenario shape (the acceptance scenario from ISSUE 6).
N_SITES = 16
SESSIONS_PER_SITE = 16
N_SESSIONS = N_SITES * SESSIONS_PER_SITE
CONCURRENCY = 64

#: Wall-clock budget for the CI smoke slice (seconds).  Generous — the
#: full batched run covers this scenario several times over within it —
#: so the gate only trips on order-of-magnitude regressions, not on a
#: noisy shared runner.
SMOKE_BUDGET_SECONDS = 120.0
SMOKE_SIM_TIME = 2.0
#: The adaptive path must beat the fixed-dt batched path by at least
#: this wall-clock factor in the smoke slice.  Deliberately below the
#: full-bench ``>= 5x`` acceptance bar: the smoke window is short, so
#: constant overheads weigh more and runner noise is larger.
SMOKE_ADAPTIVE_MIN_SPEEDUP = 3.0
#: Allowed fractional steps/sec regression of the fixed-dt smoke run
#: vs. the pinned BENCH_scale.json baseline (overridable on the CLI).
BASELINE_TOLERANCE = 0.10

#: Oracle agreement required of the adaptive run (matches the adaptive
#: parity test suite's bar).
ADAPTIVE_RTOL = 1e-6


def build_scenario(
    n_sites: int = N_SITES,
    sessions_per_site: int = SESSIONS_PER_SITE,
    concurrency: int = CONCURRENCY,
    dt: float = 0.1,
    adaptive: bool = False,
):
    """The metro ring with one repeating 1 GB-file session per testbed."""
    engine = SimulationEngine(dt=dt, adaptive=adaptive)
    network = FluidTransferNetwork(engine, adaptive=adaptive)
    sessions = []
    for tb in metro(n_sites=n_sites, sessions_per_site=sessions_per_site):
        session = tb.new_session(
            uniform_dataset(256, 1 * GB),
            params=TransferParams(concurrency=concurrency, parallelism=2),
            repeat=True,
        )
        network.add_session(session)
        sessions.append(session)
    return engine, network, sessions


class _TimedEngine:
    """One engine under measurement: counts steps, accumulates wall time."""

    def __init__(self, dt: float, adaptive: bool = False):
        self.adaptive = adaptive
        self.engine, self.network, self.sessions = build_scenario(dt=dt, adaptive=adaptive)
        self.engine.enable_profiling()
        self.steps = 0
        self.wall = 0.0
        inner = self.engine.fluid_step

        def counting_step(now: float, step_dt: float) -> None:
            self.steps += 1
            inner(now, step_dt)

        self.engine.fluid_step = counting_step
        # Adaptive jumps bypass fluid_step; count them as (multi-)steps
        # through the jump hook so `steps` stays "fluid advances taken".
        inner_jump = self.engine.fluid_jump
        if inner_jump is not None:

            def counting_jump(now: float, h: float, n: int) -> None:
                self.steps += 1
                inner_jump(now, h, n)

            self.engine.fluid_jump = counting_jump

    def run(self, sim_time: float, timed: bool = True) -> None:
        t0 = time.perf_counter()
        self.engine.run_for(sim_time)
        if timed:
            self.wall += time.perf_counter() - t0
        else:
            # Warmup: drop the step count *and* the profile's subsystem
            # accumulators so the reported attributions cover exactly the
            # timed window — exclusive, and summing to <= wall_seconds.
            self.steps = 0
            self.engine.enable_profiling()

    def result(self, sim_time: float, dt: float, warmup: float) -> dict:
        result = {
            "adaptive": self.adaptive,
            "sim_time": sim_time,
            "dt": dt,
            "warmup_sim_time": warmup,
            "fluid_steps": self.steps,
            "wall_seconds": round(self.wall, 4),
            "steps_per_second": round(self.steps / self.wall, 1),
            "total_good_bytes": float(sum(s.total_good_bytes for s in self.sessions)),
        }
        profile = getattr(self.engine, "profile", None)
        if profile is not None and getattr(profile, "totals", None):
            result["subsystem_seconds"] = {
                name: round(seconds, 4)
                for name, seconds in sorted(profile.totals.items())
            }
        return result

    def replay_key(self) -> list:
        """Everything a same-seed replay must reproduce byte-for-byte."""
        return [
            (
                s.total_good_bytes,
                s.total_lost_bytes,
                s.files_completed,
                s.rates.tolist(),
                s.file_done.tolist(),
                s.gap_left.tolist(),
            )
            for s in self.sessions
        ]


def run_bench(
    sim_time: float,
    dt: float = 0.1,
    warmup: float = 1.0,
    adaptive: bool = False,
) -> dict:
    """Measure steady-state wall time and fluid steps/sec for one engine.

    ``warmup`` simulated seconds run before the timer starts, so the
    measurement is steady-state throughput: the one-time topology build
    (identical for both modes, amortised over any real run) and the
    first cold waterfill are excluded from the timed window.
    """
    timed = _TimedEngine(dt, adaptive=adaptive)
    timed.run(warmup, timed=False)
    timed.run(sim_time)
    return timed.result(sim_time, dt, warmup)


def run_adaptive_bench(sim_time: float, dt: float, warmup: float = 1.0) -> tuple[dict, list]:
    """The adaptive measurement plus its byte-exact replay key."""
    timed = _TimedEngine(dt, adaptive=True)
    timed.run(warmup, timed=False)
    timed.run(sim_time)
    return timed.result(sim_time, dt, warmup), timed.replay_key()




def _print_result(label: str, sim_time: float, result: dict) -> None:
    print(
        f"{N_SESSIONS} sessions x {CONCURRENCY} workers ({label}), "
        f"{sim_time:g}s sim: {result['wall_seconds']:.3f}s wall, "
        f"{result['fluid_steps']} advances, "
        f"{result['steps_per_second']:.1f} steps/s"
    )
    for name, seconds in result.get("subsystem_seconds", {}).items():
        print(f"  {name:<18} {seconds:.4f}s")


def _smoke(args) -> int:
    """CI guard: budget, adaptive speedup floor, fixed-dt baseline.

    The fixed-dt run is best-of-3: wall-clock noise on shared CI
    runners is one-sided (background load only ever slows a run down),
    so the fastest attempt is the honest estimate to hold against the
    pinned baseline, and a genuine regression still fails all three.
    """
    fixed = min(
        (run_bench(SMOKE_SIM_TIME, dt=args.dt) for _ in range(3)),
        key=lambda r: r["wall_seconds"],
    )
    adaptive = run_bench(SMOKE_SIM_TIME, dt=args.dt, adaptive=True)
    wall = fixed["wall_seconds"]
    speedup = wall / max(adaptive["wall_seconds"], 1e-9)
    print(
        f"metro smoke: {N_SESSIONS} sessions x {CONCURRENCY} workers, "
        f"{SMOKE_SIM_TIME:g}s sim in {wall:.2f}s wall "
        f"(budget {SMOKE_BUDGET_SECONDS:g}s); adaptive "
        f"{adaptive['wall_seconds']:.3f}s wall ({speedup:.1f}x, "
        f"floor {SMOKE_ADAPTIVE_MIN_SPEEDUP:g}x)"
    )
    failed = False
    if wall > SMOKE_BUDGET_SECONDS:
        print("FAIL: metro smoke exceeded the wall-clock budget")
        failed = True
    if speedup < SMOKE_ADAPTIVE_MIN_SPEEDUP:
        print(
            f"FAIL: adaptive smoke speedup {speedup:.2f}x below the "
            f"{SMOKE_ADAPTIVE_MIN_SPEEDUP:g}x floor"
        )
        failed = True
    rel_err = abs(adaptive["total_good_bytes"] - fixed["total_good_bytes"]) / max(
        fixed["total_good_bytes"], 1.0
    )
    if rel_err > ADAPTIVE_RTOL:
        print(f"FAIL: adaptive smoke diverged from fixed-dt (rel err {rel_err:.2e})")
        failed = True
    baseline_path = FsPath(args.out)
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        pinned = baseline.get("batched", {}).get("steps_per_second", 0.0)
        floor = pinned * (1.0 - args.baseline_tolerance)
        print(
            f"fixed-dt baseline: {fixed['steps_per_second']:.1f} steps/s vs "
            f"pinned {pinned:.1f} (floor {floor:.1f})"
        )
        if pinned and fixed["steps_per_second"] < floor:
            print(
                f"FAIL: fixed-dt smoke regressed more than "
                f"{args.baseline_tolerance:.0%} below {baseline_path}"
            )
            failed = True
    else:
        print(f"note: {baseline_path} missing, skipping baseline comparison")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short batched runs (fixed + adaptive); exit 1 on any perf guard",
    )
    parser.add_argument("--sim-time", type=float, default=20.0, help="simulated seconds")
    parser.add_argument("--dt", type=float, default=0.1, help="fluid step size")
    parser.add_argument(
        "--baseline", action="store_true", help="print measurements without writing JSON"
    )
    parser.add_argument(
        "--baseline-tolerance",
        type=float,
        default=BASELINE_TOLERANCE,
        help="allowed fractional steps/s regression vs the pinned JSON (smoke)",
    )
    parser.add_argument("--out", default="BENCH_scale.json", help="output path")
    args = parser.parse_args(argv)

    if args.smoke:
        return _smoke(args)

    # Measured sequentially, each run with its working set resident.
    batched = run_bench(args.sim_time, dt=args.dt)
    adaptive, replay_a = run_adaptive_bench(args.sim_time, dt=args.dt)
    _, replay_b = run_adaptive_bench(args.sim_time, dt=args.dt)
    # The adaptive engine takes a handful of large advances instead of
    # thousands of grid steps, so steps/s is meaningless there — the
    # comparison is wall clock over the same simulated window.
    speedup_adaptive = round(
        batched["wall_seconds"] / max(adaptive["wall_seconds"], 1e-9), 2
    )
    rel_err = abs(adaptive["total_good_bytes"] - batched["total_good_bytes"]) / max(
        batched["total_good_bytes"], 1.0
    )
    adaptive["good_bytes_rel_err_vs_fixed"] = float(f"{rel_err:.3e}")
    adaptive["matches_fixed_dt_rtol"] = ADAPTIVE_RTOL
    adaptive["replay_identical"] = replay_a == replay_b

    for label, result in (("batched", batched), ("adaptive", adaptive)):
        _print_result(label, args.sim_time, result)
    print(
        f"speedup_adaptive: {speedup_adaptive}x (adaptive vs batched, wall; "
        f"rel err {rel_err:.2e}, replay identical: {adaptive['replay_identical']})"
    )
    if rel_err > ADAPTIVE_RTOL:
        print(f"FAIL: adaptive run diverged from the fixed-dt oracle (> {ADAPTIVE_RTOL:g})")
        return 1
    if not adaptive["replay_identical"]:
        print("FAIL: adaptive same-seed replay was not byte-identical")
        return 1

    if args.baseline:
        return 0

    payload = {
        "scenario": {
            "preset": "metro",
            "sites": N_SITES,
            "sessions": N_SESSIONS,
            "concurrency": CONCURRENCY,
            "workers": N_SESSIONS * CONCURRENCY,
            "sim_time": args.sim_time,
            "dt": args.dt,
        },
        "batched": batched,
        "adaptive": adaptive,
        "speedup_adaptive": speedup_adaptive,
    }
    FsPath(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
