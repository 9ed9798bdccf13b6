"""One end-to-end benchmark for the simulator.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper-figures --seed 1 --seconds 20 --trace 0

Workloads: ``paper-figures``, ``open-workload``, ``metro-window``.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics of a traced pass.  Progress and raw
host timings go to stderr; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, metrics and noise controls.
"""

from __future__ import annotations

import os

# One BLAS thread: two BLAS threads on a two-core host contend with each
# other.  Must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from pathlib import Path  # noqa: E402

from startclock import SetupClock  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Fewest timed passes per run, however long a pass takes.
MIN_PASSES = 2


def log(message: str) -> None:
    """Progress line on stderr."""
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def import_program() -> None:
    """Import the program from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not from {ROOT / 'src'}")
    import repro.cli  # noqa: F401  (the CLI's import chain is the program's start-up)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup = SetupClock()
    import_program()
    from harness import RefClock, median_of, run_pass
    from probes import JobLog, SimSeconds, tick_on_fluid_steps
    from repro.runner import use_runner

    workload = WORKLOADS[args.workload]()
    sim_clock = SimSeconds()
    joblog = JobLog()
    workload.setup(args.seed, joblog)
    setup.stop()
    log(f"{args.workload} seed={args.seed}: set-up {setup.raw_s:.3f} s host, {setup.norm_s:.3f} s ref")
    clock = RefClock(split_ops=not args.trace)

    outcome = Outcome()
    with ExitStack() as stack:
        # Serial, and no result cache: every pass simulates from scratch
        # and nothing is read from or written to .repro-cache/.
        stack.enter_context(use_runner(jobs=1, cache=None))
        sim_clock.install(stack)
        joblog.install(stack)
        tick_on_fluid_steps(stack, clock.tick)
        ops = workload.operations()

        def check(index, timed):
            workload.check(index, timed, outcome)

        def measured():
            return run_pass(ops, clock, sim_clock, check)

        if workload.WARM_UP:
            warm = measured()
            log(f"warm-up pass {warm.raw_s:.3f} s host, {warm.norm_s:.3f} s ref (untimed)")
        if args.trace:
            metrics = traced_runs(args, ops, clock, sim_clock, check, measured)
        else:
            passes = timed_passes(args.seconds, measured)
            walls = [p.norm_s for p in passes]
            metrics = {
                "setup_s": (setup.norm_s, "s"),
                "wall_s": (median_of(walls), "s"),
                "sim_s_per_s": (median_of([p.sim_s / p.norm_s for p in passes]), "sim-s/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
    for failure in outcome.failures[:20]:
        log(f"FAILED {failure}")
    for problem in outcome.problems[:20]:
        log(f"CHECK {problem}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def timed_passes(seconds: float, measured) -> list:
    """Whole passes until the next one would end past ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        result = measured()
        passes.append(result)
        log(
            f"pass {len(passes)}: {result.raw_s:.3f} s host, {result.norm_s:.3f} s ref, "
            f"{result.sim_s:.1f} sim-s"
        )
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + result.raw_s > seconds:
            return passes


def traced_runs(args, ops, clock, sim_clock, check, measured) -> dict:
    """Untraced and traced passes in turn; per-layer metrics of the traced ones.

    The last traced pass's spans (host seconds) and event counts are
    written to ``perfbench/out/<workload>-seed<seed>.json``.
    """
    from harness import median_of, run_pass
    from probes import EventCounts, Profiles, Spans
    from repro.obs import use_tracing
    from traced import PER_LAYER, layer_metrics, startup_metrics

    untraced: list[float] = []
    traced: list[float] = []
    samples: list[dict] = []
    start = time.perf_counter()
    while True:
        untraced.append(measured().norm_s)
        spans, events, profiles = Spans(), EventCounts(), Profiles()
        with ExitStack() as stack:
            spans.install(stack)
            profiles.install(stack)
            stack.enter_context(use_tracing(events))
            result = run_pass(ops, clock, sim_clock, check)
        traced.append(result.norm_s)
        scale = result.norm_s / result.raw_s
        samples.append(layer_metrics(spans, events, profiles, result.raw_s, scale))
        log(
            f"pair {len(traced)}: untraced {untraced[-1]:.3f} s, traced {traced[-1]:.3f} s ref, "
            f"attributed {samples[-1]['attributed_share']:.1%}, "
            f"unattributed {samples[-1]['unattributed_s']:.3f} s"
        )
        if time.perf_counter() - start + 2.0 * result.raw_s > args.seconds:
            break
    out = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    dump = {"spans": spans.summary(), "events": dict(sorted(events.counts.items()))}
    out.write_text(json.dumps(dump, indent=1) + "\n")
    log(f"spans of the last traced pass written to {out.relative_to(ROOT)}")
    metrics = {name: median_of([s[name] for s in samples]) for name in samples[0]}
    metrics["obs.traced_overhead"] = median_of(traced) / median_of(untraced)
    metrics.update(startup_metrics(ROOT))
    return {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())
