"""Output checks: properties the simulator's results must have.

Each check states a law of the method (capacity, conservation,
symmetry, monotonicity) or compares totals reached by two independent
paths.  None compares against recorded output, so a change that keeps
the simulator correct keeps every check passing.  Every function
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Callable, Iterable

#: Relative slack for float comparisons of quantities that are equal
#: in exact arithmetic.
RTOL = 1e-9

SHED_REASONS = frozenset({"quota", "queue-full", "degraded", "breaker-open"})


def _close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def _within(value: float, cap: float) -> bool:
    return value <= cap * (1.0 + RTOL)


# ---------------------------------------------------------------------------
# paper-figures
# ---------------------------------------------------------------------------


def _testbeds() -> dict[str, Callable]:
    """Testbed name (as results report it) -> preset factory."""
    from repro.testbeds import presets

    return {
        "HPCLab": presets.hpclab,
        "XSEDE": presets.xsede,
        "Campus Cluster": presets.campus_cluster,
        "Emulab": presets.emulab_fig4,
    }


def throughputs(name: str, result: Any) -> list[tuple[str, float, Callable]]:
    """``(label, bps, testbed factory)`` for every throughput ``name`` reports.

    The factory is the testbed the experiment ran the flow on; its
    ``max_throughput()`` is the Table 1 "achievable" column.
    """
    from repro.testbeds import presets
    from repro.units import Mbps

    nets = _testbeds()
    rows: list[tuple[str, float, Callable]] = []
    if name in ("fig01", "fig04"):
        curves = result.curves.items() if name == "fig01" else [("Emulab", result.points)]
        for net, points in curves:
            rows += [(f"{net} n={p.concurrency}", p.throughput_bps, nets[net]) for p in points]
    elif name == "fig02":
        rows += [("globus", result.globus_bps, presets.stampede2_comet)]
        rows += [("harp", result.harp_bps, presets.stampede2_comet)]
        rows += [("harp-first", result.harp_first_bps, presets.hpclab)]
        rows += [("harp-second", result.harp_second_bps, presets.hpclab)]
    elif name == "fig07":
        rows += [
            (run.name, run.steady_throughput_bps, presets.emulab_high_optimal)
            for run in result.runs.values()
        ]
    elif name == "fig08":
        shares = result.hc_shares_early + result.gd_shares_early
        rows += [(f"share{i}", bps, presets.emulab_high_optimal) for i, bps in enumerate(shares)]
    elif name in ("fig11", "fig12"):
        for phase in result.phases:
            rows += [(f"{phase.label} aggregate", phase.aggregate_bps, nets[result.network])]
            rows += [(f"{phase.label} share", bps, nets[result.network]) for bps in phase.shares_bps]
    elif name == "fig14":
        rows += [
            (f"{run.solution}/{run.network}", run.throughput_bps, nets[run.network])
            for run in result.runs.values()
        ]
    elif name == "fig15":
        for run in result.runs.values():
            rows += [(f"{run.dataset} falcon", run.falcon_bps, presets.stampede2_comet)]
            rows += [(f"{run.dataset} falcon-mp", run.falcon_mp_bps, presets.stampede2_comet)]
    elif name == "fig16":
        for run in (result.gd, result.bo, result.greedy):
            for field in ("baseline_before_bps", "baseline_after_bps", "tuner_bps"):
                rows += [(f"{run.algorithm} {field}", getattr(run, field), presets.stampede2_comet)]
    elif name == "bbr":
        for field in ("single_cubic_bps", "single_bbr_bps", "mixed_cubic_bps", "mixed_bbr_bps"):
            rows += [(field, getattr(result, field), presets.emulab_high_optimal)]
    elif name == "robustness":

        def testbed() -> Any:
            return presets.emulab(link_bps=200 * Mbps, per_process_bps=10 * Mbps)

        for run in result.runs.values():
            rows += [(f"{run.name} on", run.on_throughput_bps, testbed)]
            rows += [(f"{run.name} off", run.off_throughput_bps, testbed)]
    elif name == "overhead":
        rows += [
            (run.name, run.mean_throughput_bps, presets.emulab_fig4)
            for run in result.runs.values()
        ]
    elif name == "fault-tolerance":
        rows += [
            (run.name, run.mean_throughput_bps, presets.hpclab) for run in result.runs.values()
        ]
    return rows


def jain_indices(name: str, result: Any) -> list[tuple[str, float, int]]:
    """``(label, index, flows)`` for every Jain index ``name`` reports."""
    if name == "fig08":
        flows = len(result.hc_shares_early)
        return [
            (field, getattr(result, field), flows)
            for field in ("hc_early_jain", "hc_late_jain", "gd_early_jain")
        ]
    if name in ("fig11", "fig12"):
        return [(phase.label, phase.jain, len(phase.shares_bps)) for phase in result.phases]
    return []


def check_jain(label: str, index: float, flows: int) -> list[str]:
    """A Jain index over ``flows`` non-negative shares lies in [1/flows, 1]."""
    if flows >= 1 and _within(1.0 / flows, index) and _within(index, 1.0):
        return []
    return [f"{label}: Jain index {index!r} outside [1/{flows}, 1]"]


def check_figure(name: str, result: Any, rendered: str) -> list[str]:
    """Every property one paper experiment's output must have."""
    from repro.units import GB

    problems = [] if rendered.strip() else [f"{name}: rendered output is empty"]
    caps: dict[Callable, float] = {}
    for label, bps, factory in throughputs(name, result):
        cap = caps.setdefault(factory, factory().max_throughput())
        if not (bps >= 0.0 and _within(bps, cap)):
            problems.append(f"{name} {label}: {bps!r} bps outside [0, achievable {cap!r}]")
    for label, index, flows in jain_indices(name, result):
        problems += [f"{name} {p}" for p in check_jain(label, index, flows)]
    if name == "table1":
        for row in result.rows:
            if not (0.0 < row.max_throughput_bps and _within(row.max_throughput_bps, row.bandwidth_bps)):
                problems.append(f"table1 {row.name}: achievable exceeds link bandwidth")
    if name == "fig04":
        points = sorted(result.points, key=lambda p: p.concurrency)
        for lo, hi in zip(points, points[1:]):
            if hi.loss_rate < lo.loss_rate * (1.0 - RTOL):
                problems.append(
                    f"fig04: loss falls from {lo.loss_rate!r} at n={lo.concurrency} "
                    f"to {hi.loss_rate!r} at n={hi.concurrency}"
                )
    if name == "fault-tolerance":
        # The experiment's dataset: files_expected files of 1 GB each.
        for run in result.runs.values():
            expected = run.files_expected * GB
            if run.state == "completed" and not (
                run.files_delivered == run.files_expected and _close(run.bytes_moved, expected)
            ):
                problems.append(
                    f"fault-tolerance {run.name}: completed with {run.bytes_moved!r} of "
                    f"{expected!r} bytes, {run.files_delivered}/{run.files_expected} files"
                )
            if not _within(run.bytes_moved, expected):
                problems.append(f"fault-tolerance {run.name}: moved more than its dataset")
        retries_on = result.runs.get("retries-on")
        if retries_on is None or retries_on.state != "completed":
            problems.append("fault-tolerance: the retries-on service did not complete its dataset")
    return problems


# ---------------------------------------------------------------------------
# open-workload
# ---------------------------------------------------------------------------


def job_problem(job: Any) -> str | None:
    """Why one simulated job failed, or ``None`` if it is a correct outcome.

    A job must end in a terminal state; a shed job carries one typed
    reason and any other job none; a completed job delivered every file
    and exactly its dataset's bytes.  A job that ends FAILED fails.
    """
    from repro.service import JobState

    state = job.state
    if not state.is_terminal:
        return f"{job.name}: ended in non-terminal state {state.value}"
    if state is JobState.FAILED:
        return f"{job.name}: FAILED"
    if state is JobState.REJECTED:
        if job.rejection_reason not in SHED_REASONS:
            return f"{job.name}: shed with reason {job.rejection_reason!r}"
        return None
    if job.rejection_reason is not None:
        return f"{job.name}: {state.value} but carries shed reason {job.rejection_reason!r}"
    if state is JobState.COMPLETED:
        report = job.report
        if report is None or not report.completed:
            return f"{job.name}: COMPLETED without a completed report"
        if report.files != job.dataset.file_count:
            return f"{job.name}: delivered {report.files} of {job.dataset.file_count} files"
        if not _close(report.bytes_moved, job.dataset.total_bytes):
            return (
                f"{job.name}: moved {report.bytes_moved!r} of "
                f"{job.dataset.total_bytes!r} bytes"
            )
    return None


def check_leg(
    run: Any,
    jobs: list[Any],
    tenants: Iterable[tuple],
    shards: list[tuple[str, list[Any]]] | None = None,
) -> list[str]:
    """Leg-level laws of one ``open-workload`` leg.

    ``jobs`` are the jobs the control plane returned, one per arrival;
    ``tenants`` is the experiment's tenant table ``(name, share,
    weight, priority, quota rate, quota burst)``; ``shards`` gives each
    shard's name and registered jobs for the sharded leg.
    """
    from repro.service import JobState

    problems: list[str] = []
    leg = run.leg
    by_tenant: dict[str, list[Any]] = defaultdict(list)
    for job in jobs:
        by_tenant[job.tenant].append(job)
    stats = {t.tenant: t for t in run.tenants}
    if len(jobs) != run.jobs_submitted:
        problems.append(f"{leg}: {len(jobs)} arrivals but {run.jobs_submitted} jobs reported")
    for name, _share, _weight, _prio, quota_rate, quota_burst in tenants:
        mine = by_tenant.get(name, [])
        t = stats.get(name)
        if t is None:
            problems.append(f"{leg}: tenant {name} missing from the summary")
            continue
        completed = sum(1 for j in mine if j.state is JobState.COMPLETED)
        failed = sum(1 for j in mine if j.state is JobState.FAILED)
        shed = _shed_counts(j.rejection_reason for j in mine if j.state is JobState.REJECTED)
        if t.submitted != t.completed + t.shed_total + failed or t.unfinished:
            problems.append(
                f"{leg} {name}: submitted {t.submitted} != completed {t.completed} "
                f"+ shed {t.shed_total} + failed {failed} (unfinished {t.unfinished})"
            )
        reported_shed = {
            "quota": t.shed_quota,
            "queue-full": t.shed_queue_full,
            "degraded": t.shed_degraded,
            "breaker-open": t.shed_breaker,
        }
        if (len(mine), completed, shed) != (t.submitted, t.completed, reported_shed):
            problems.append(
                f"{leg} {name}: jobs give {len(mine)} submitted/{completed} completed/"
                f"shed {shed}, summary gives {t.submitted}/{t.completed}/{reported_shed}"
            )
        if not math.isinf(quota_rate):
            # Breaker-shed jobs never reach the bucket; quota-shed jobs
            # found it empty; every other job took one token.
            took = sum(
                1 for j in mine if j.rejection_reason not in ("quota", "breaker-open")
            )
            span = max((j.submitted_at for j in mine), default=0.0)
            allowed = quota_burst + quota_rate * span
            if took > allowed * (1.0 + RTOL):
                problems.append(
                    f"{leg} {name}: {took} jobs admitted past the quota, "
                    f"bucket allows {allowed:.3f} over {span:.3f} s"
                )
    flows = len(run.tenants)
    problems += [f"{leg} {p}" for p in check_jain("fairness", run.jain_fairness, flows)]
    if shards is not None:
        problems += _check_shards(run, shards)
    return problems


def _shed_counts(reasons: Iterable[str]) -> dict[str, int]:
    """Counts per shed reason, with every reason present."""
    counts = dict.fromkeys(sorted(SHED_REASONS), 0)
    for reason in reasons:
        counts[reason] = counts.get(reason, 0) + 1
    return counts


def _check_shards(run: Any, shards: list[tuple[str, list[Any]]]) -> list[str]:
    from repro.service import JobState

    problems: list[str] = []
    leg = run.leg
    reported = {s.shard: s for s in run.shards}
    routed = sum(s.routed for s in run.shards)
    done = sum(s.completed for s in run.shards)
    submitted = sum(t.submitted for t in run.tenants)
    completed = sum(t.completed for t in run.tenants)
    if (routed, done) != (submitted, completed):
        problems.append(
            f"{leg}: shards routed {routed}/completed {done}, "
            f"tenants submitted {submitted}/completed {completed}"
        )
    for name, jobs in shards:
        s = reported.get(name)
        finished = sum(1 for j in jobs if j.state is JobState.COMPLETED)
        if s is None or (s.routed, s.completed) != (len(jobs), finished):
            problems.append(f"{leg} {name}: summary disagrees with the shard's own jobs")
    for s in run.shards:
        if not (0.0 <= s.utilization and _within(s.utilization, 1.0)):
            problems.append(f"{leg} {s.shard}: utilisation {s.utilization!r} outside [0, 1]")
    return problems


# ---------------------------------------------------------------------------
# metro-window
# ---------------------------------------------------------------------------


def check_metro(
    sessions: list[tuple[int, str, str, float]],
    read_caps: dict[str, float],
    write_caps: dict[str, float],
    window: float,
) -> list[str]:
    """Laws of the metro ring over a fixed window.

    ``sessions`` holds ``(hops, source site, destination site, bytes
    delivered)``; the caps are each site's storage aggregate in bps.
    The ring is rotationally symmetric, so sessions with equal hop
    counts deliver equal bytes; a longer path shares more links and
    has a longer RTT, so delivered bytes never rise with hop count; and
    no site's storage moves more than its aggregate rate allows.
    """
    problems: list[str] = []
    by_hops: dict[int, list[float]] = defaultdict(list)
    reads: dict[str, float] = defaultdict(float)
    writes: dict[str, float] = defaultdict(float)
    for hops, src, dst, delivered in sessions:
        by_hops[hops].append(delivered)
        reads[src] += delivered
        writes[dst] += delivered
        if not delivered > 0.0:
            problems.append(f"a {hops}-hop session delivered {delivered!r} bytes")
    previous = math.inf
    for hops in sorted(by_hops):
        values = by_hops[hops]
        lo, hi = min(values), max(values)
        if not _close(lo, hi):
            problems.append(f"{hops}-hop sessions delivered between {lo!r} and {hi!r} bytes")
        if hi > previous * (1.0 + RTOL):
            problems.append(f"{hops}-hop sessions delivered more than shorter paths")
        previous = hi
    for caps, moved, verb in ((read_caps, reads, "read"), (write_caps, writes, "wrote")):
        for site, delivered in moved.items():
            limit = caps[site] / 8.0 * window
            if not _within(delivered, limit):
                problems.append(f"site {site} {verb} {delivered!r} bytes, storage allows {limit!r}")
    return problems
