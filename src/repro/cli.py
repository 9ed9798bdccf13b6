"""Command-line interface.

Usage::

    python -m repro list-testbeds
    python -m repro list-experiments
    python -m repro run fig09                # regenerate one figure
    python -m repro trace fig07 --quick      # same, with an event trace
    python -m repro tune hpclab --optimizer bo --duration 240
    python -m repro lint src/repro           # repo-specific invariant checks

The CLI is a thin veneer over the library — everything it does is one
or two calls into ``repro.experiments`` / ``repro.core``.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Callable, Sequence

from repro.analysis.tables import format_table
from repro.experiments import REGISTRY
from repro.testbeds import presets
from repro.units import bps_to_gbps, format_rate, seconds_to_ms

#: CLI name -> testbed factory.
TESTBEDS: dict[str, Callable] = {
    "emulab": presets.emulab_fig4,
    "emulab48": presets.emulab_high_optimal,
    "xsede": presets.xsede,
    "hpclab": presets.hpclab,
    "campus": presets.campus_cluster,
    "stampede2-comet": presets.stampede2_comet,
}

#: CLI name -> experiment module (must expose main()).  Alias of the
#: library-level registry; kept under the historical CLI name.
EXPERIMENTS = REGISTRY


def cmd_list_testbeds(_args: argparse.Namespace) -> int:
    """Print the available testbed presets."""
    rows = []
    for name, factory in TESTBEDS.items():
        tb = factory()
        rows.append(
            (
                name,
                format_rate(tb.path.capacity, 0),
                f"{seconds_to_ms(tb.path.rtt):g}ms",
                tb.bottleneck,
                tb.optimal_concurrency(),
                format_rate(tb.max_throughput(), 1),
            )
        )
    print(format_table(["name", "bandwidth", "rtt", "bottleneck", "n*", "achievable"], rows))
    return 0


def cmd_list_experiments(_args: argparse.Namespace) -> int:
    """Print the runnable experiments with their docstring headline."""
    rows = []
    for name, module_path in EXPERIMENTS.items():
        module = importlib.import_module(module_path)
        headline = (module.__doc__ or "").strip().splitlines()[0]
        rows.append((name, headline))
    print(format_table(["experiment", "description"], rows))
    return 0


def _runner_pieces(args: argparse.Namespace):
    """(cache, progress) from the run subcommand's flags.

    Progress goes through a single :class:`ProgressWriter` so parallel
    task completions under ``--jobs N`` never interleave mid-line.
    """
    from repro.runner import ProgressWriter, ResultCache, default_cache_dir

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    return cache, ProgressWriter(sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    """Run one experiment (or --all) and print the rendered tables."""
    if args.all:
        return _run_all(args)
    if args.experiment is None:
        print("pass an experiment name or --all; try `list-experiments`")
        return 2
    module_path = EXPERIMENTS.get(args.experiment)
    if module_path is None:
        print(f"unknown experiment {args.experiment!r}; try `list-experiments`")
        return 2
    from repro.runner import use_runner

    cache, progress = _runner_pieces(args)
    with use_runner(jobs=args.jobs, cache=cache, progress=progress):
        if args.quick:
            from repro.runner.suite import render_experiment

            print(render_experiment(args.experiment, quick=True))
        else:
            importlib.import_module(module_path).main()
    return 0


def _run_all(args: argparse.Namespace) -> int:
    """Regenerate every registered experiment through the suite runner."""
    import time

    from repro.runner.suite import run_suite

    cache, progress = _runner_pieces(args)
    names = list(EXPERIMENTS)
    start = time.perf_counter()
    outcomes = run_suite(
        names, quick=args.quick, jobs=args.jobs, cache=cache, progress=progress
    )
    for outcome in outcomes:
        print(f"== {outcome.name} ==")
        print(outcome.output)
        print()
    wall = time.perf_counter() - start
    replayed = sum(1 for o in outcomes if o.cached)
    print(
        f"{len(outcomes)} experiments in {wall:.1f}s "
        f"(jobs={args.jobs}, {replayed} from cache)",
        file=sys.stderr,
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one experiment under tracing; write JSONL, print a summary.

    The experiment executes serially and uncached (a pool worker's
    events would be lost and a cache replay emits none), so the trace
    covers every simulated event.  Same seed ⇒ byte-identical file.
    """
    module_path = EXPERIMENTS.get(args.experiment)
    if module_path is None:
        print(f"unknown experiment {args.experiment!r}; try `list-experiments`")
        return 2
    from repro.analysis.timeline import summarize
    from repro.obs import InMemoryExporter, JsonlExporter, use_tracing
    from repro.runner import use_runner
    from repro.runner.suite import render_experiment

    out = args.out or f"{args.experiment}.trace.jsonl"
    memory = InMemoryExporter()
    with JsonlExporter(out) as sink:
        with use_tracing(sink, memory):
            with use_runner(jobs=1, cache=None):
                output = render_experiment(args.experiment, quick=args.quick)
    print(output)
    summary = summarize(memory.events)
    rows = [(s.type, s.count, f"{s.first:.1f}", f"{s.last:.1f}") for s in summary]
    print(format_table(["event", "count", "first[s]", "last[s]"], rows))
    decisions = sum(s.count for s in summary if s.type == "optimizer.decision")
    print(
        f"{len(memory.events)} events ({decisions} optimizer decisions) -> {out}",
        file=sys.stderr,
    )
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Run an experiment and write its result as JSON."""
    module_path = EXPERIMENTS.get(args.experiment)
    if module_path is None:
        print(f"unknown experiment {args.experiment!r}; try `list-experiments`")
        return 2
    from repro.analysis.export import write_json

    module = importlib.import_module(module_path)
    result = module.run()
    out = args.out or f"{args.experiment}.json"
    write_json(result, out)
    print(f"wrote {out}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    """Run Falcon on one testbed and report the outcome."""
    factory = TESTBEDS.get(args.testbed)
    if factory is None:
        print(f"unknown testbed {args.testbed!r}; try `list-testbeds`")
        return 2
    from repro.experiments.common import launch_falcon, make_context

    ctx = make_context(seed=args.seed)
    if args.profile:
        ctx.engine.enable_profiling()
    tb = factory()
    launched = launch_falcon(ctx, tb, kind=args.optimizer)
    injector = None
    if args.faults:
        from repro.faults import ChaosRng, FaultInjector, chaos_plan

        plan = chaos_plan(args.faults, horizon=args.duration, rng=ChaosRng(ctx.streams))
        injector = FaultInjector(
            ctx.engine, ctx.network, plan, streams=ctx.streams, recorder=ctx.recorder
        ).arm()
    ctx.engine.run_for(args.duration)
    agent = launched.controller
    tail = slice(max(0, len(agent.history) - 10), None)
    tputs = agent.throughputs()[tail]
    ccs = agent.concurrencies()[tail]
    print(f"{tb.name}: optimizer={args.optimizer} duration={args.duration:.0f}s")
    print(
        f"steady throughput {bps_to_gbps(float(tputs.mean())):.2f} Gbps "
        f"({100 * float(tputs.mean()) / tb.max_throughput():.0f}% of achievable), "
        f"concurrency ~{float(ccs.mean()):.0f} (optimum {tb.optimal_concurrency()})"
    )
    from repro.analysis.ascii_chart import sparkline

    print(f"throughput  {sparkline(launched.trace.throughput_bps)}")
    print(f"concurrency {sparkline(launched.trace.concurrency)}")
    if injector is not None:
        session = launched.session
        print(
            f"faults: {len(injector.records())} events, "
            f"{session.worker_crashes} worker crashes, "
            f"{session.files_requeued} files requeued, "
            f"{session.stalled_seconds:.1f}s stalled"
        )
        for rec in injector.log:
            print(f"  {rec}")
    if args.profile:
        print()
        print(ctx.engine.profile.report())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Falcon (SC'21) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-testbeds", help="show testbed presets").set_defaults(
        fn=cmd_list_testbeds
    )
    sub.add_parser("list-experiments", help="show runnable experiments").set_defaults(
        fn=cmd_list_experiments
    )

    run = sub.add_parser("run", help="regenerate paper figures/tables")
    run.add_argument(
        "experiment", nargs="?", default=None, help="experiment name (see list-experiments)"
    )
    run.add_argument("--all", action="store_true", help="run every registered experiment")
    run.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="process fan-out width (default 1)"
    )
    cache = run.add_mutually_exclusive_group()
    cache.add_argument(
        "--no-cache", action="store_true", help="skip the content-addressed result cache"
    )
    cache.add_argument(
        "--cache-dir", default=None, help="cache directory (default .repro-cache or $REPRO_CACHE_DIR)"
    )
    run.add_argument(
        "--quick", action="store_true", help="reduced-duration profile (CI-sized horizons)"
    )
    run.set_defaults(fn=cmd_run)

    trace = sub.add_parser("trace", help="run an experiment with event tracing")
    trace.add_argument("experiment", help="experiment name (see list-experiments)")
    trace.add_argument(
        "--out", default=None, help="trace path (default <name>.trace.jsonl)"
    )
    trace.add_argument(
        "--quick", action="store_true", help="reduced-duration profile (CI-sized horizons)"
    )
    trace.set_defaults(fn=cmd_trace)

    export = sub.add_parser("export", help="run an experiment and write JSON")
    export.add_argument("experiment", help="experiment name (see list-experiments)")
    export.add_argument("--out", default=None, help="output path (default <name>.json)")
    export.set_defaults(fn=cmd_export)

    tune = sub.add_parser("tune", help="run Falcon on a testbed")
    tune.add_argument("testbed", help="testbed name (see list-testbeds)")
    tune.add_argument("--optimizer", choices=("gd", "bo", "hc"), default="gd")
    tune.add_argument("--duration", type=float, default=300.0)
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument(
        "--profile",
        action="store_true",
        help="print per-subsystem wall-time counters after the run",
    )
    from repro.faults.presets import CHAOS_PRESETS

    tune.add_argument(
        "--faults",
        choices=sorted(CHAOS_PRESETS),
        default=None,
        help="inject a seeded chaos preset during the run",
    )
    tune.set_defaults(fn=cmd_tune)

    from repro.devtools.cli import add_lint_parser

    add_lint_parser(sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.fn(args)
