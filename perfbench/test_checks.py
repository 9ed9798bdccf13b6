"""Each output check passes real output and fails a corrupted copy.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py -q

The real outputs come from short runs of the same code the benchmark
runs; each corruption breaks exactly one law.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import sys
from contextlib import ExitStack
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from probes import JobLog  # noqa: E402
from workloads import MetroWindow  # noqa: E402

from repro.experiments import REGISTRY  # noqa: E402
from repro.experiments import open_workload as ow  # noqa: E402
from repro.runner.suite import QUICK_PROFILE  # noqa: E402
from repro.service import JobState, ShardedControlPlane  # noqa: E402
from repro.units import GB  # noqa: E402

SEED = 3


def _leg(fn, **kwargs):
    log = JobLog()
    with ExitStack() as stack:
        log.install(stack)
        run = fn(seed=SEED, max_active=8, **kwargs)
    shards = None
    if isinstance(log.planes[0], ShardedControlPlane):
        shards = [(s.name, list(s.service.jobs)) for s in log.planes[0].shards]
    return run, log.jobs, shards


@pytest.fixture(scope="module")
def single_leg():
    return _leg(
        ow.workload_run, leg="overload-2x", horizon=60.0, rate_per_hour=2400.0, rho=2.0, preset=""
    )


@pytest.fixture(scope="module")
def sharded_leg():
    return _leg(ow.sharded_run, leg="sharded-4x", horizon=40.0, rate_per_hour=8000.0, n_shards=4)


def _replace_tenant(run, tenant, **changes):
    tenants = tuple(
        dataclasses.replace(t, **changes) if t.tenant == tenant else t for t in run.tenants
    )
    return dataclasses.replace(run, tenants=tenants)


def _completed(jobs, min_files=1):
    return next(
        j for j in jobs if j.state is JobState.COMPLETED and j.dataset.file_count >= min_files
    )


# -- open-workload ------------------------------------------------------------


def test_real_legs_pass(single_leg, sharded_leg):
    for run, jobs, shards in (single_leg, sharded_leg):
        assert [checks.job_problem(j) for j in jobs] == [None] * len(jobs)
        assert checks.check_leg(run, jobs, ow.TENANTS, shards) == []


def test_completed_job_short_by_one_file_fails(single_leg):
    _run, jobs, _shards = single_leg
    job = copy.copy(_completed(jobs, min_files=2))
    size = float(job.dataset.sizes[0])
    job.report = dataclasses.replace(
        job.report, files=job.report.files - 1, bytes_moved=job.report.bytes_moved - size
    )
    assert "delivered" in checks.job_problem(job)


def test_completed_job_short_by_bytes_fails(single_leg):
    job = copy.copy(_completed(single_leg[1]))
    job.report = dataclasses.replace(job.report, bytes_moved=job.report.bytes_moved * 0.999)
    assert "moved" in checks.job_problem(job)


@pytest.mark.parametrize(
    "state, reason",
    [
        (JobState.RUNNING, None),
        (JobState.QUEUED, None),
        (JobState.FAILED, None),
        (JobState.REJECTED, None),
        (JobState.REJECTED, "no-reason-at-all"),
        (JobState.COMPLETED, "quota"),
    ],
)
def test_job_outside_its_terminal_laws_fails(single_leg, state, reason):
    job = copy.copy(_completed(single_leg[1]))
    job.state = state
    job.rejection_reason = reason
    assert checks.job_problem(job) is not None


def test_tenant_totals_off_by_one_fail(single_leg):
    run, jobs, _ = single_leg
    bad = _replace_tenant(run, "silver", completed=run.tenants[1].completed + 1)
    assert checks.check_leg(bad, jobs, ow.TENANTS)
    bad = _replace_tenant(run, "bronze", shed_degraded=run.tenants[2].shed_degraded + 1)
    assert checks.check_leg(bad, jobs, ow.TENANTS)
    bad = _replace_tenant(run, "gold", unfinished=1)
    assert checks.check_leg(bad, jobs, ow.TENANTS)
    assert checks.check_leg(run, jobs[:-1], ow.TENANTS)


def test_quota_tenant_past_its_bucket_fails(single_leg):
    run, jobs, _ = single_leg
    scavenger = [j for j in jobs if j.tenant == "scavenger"]
    took = [j for j in scavenger if j.rejection_reason not in ("quota", "breaker-open")]
    burst = next(t[5] for t in ow.TENANTS if t[0] == "scavenger")
    assert len(took) > burst
    squeezed = []
    for job in jobs:
        if job.tenant == "scavenger":
            job = copy.copy(job)
            job.submitted_at = 0.0
        squeezed.append(job)
    problems = checks.check_leg(run, squeezed, ow.TENANTS)
    assert len(problems) == 1 and "quota" in problems[0]


def test_jain_outside_bounds_fails(single_leg):
    run, jobs, _ = single_leg
    for index in (0.2, 1.01):
        assert checks.check_leg(dataclasses.replace(run, jain_fairness=index), jobs, ow.TENANTS)


def test_shard_routed_count_off_by_one_fails(sharded_leg):
    run, jobs, shards = sharded_leg
    first = dataclasses.replace(run.shards[0], routed=run.shards[0].routed + 1)
    bad = dataclasses.replace(run, shards=(first,) + run.shards[1:])
    assert checks.check_leg(bad, jobs, ow.TENANTS, shards)


def test_shard_completed_count_moved_between_shards_fails(sharded_leg):
    run, jobs, shards = sharded_leg
    a, b = run.shards[0], run.shards[1]
    moved = (
        dataclasses.replace(a, completed=a.completed + 1),
        dataclasses.replace(b, completed=b.completed - 1),
    )
    bad = dataclasses.replace(run, shards=moved + run.shards[2:])
    problems = checks.check_leg(bad, jobs, ow.TENANTS, shards)
    assert len(problems) == 2 and all("disagrees" in p for p in problems)


def test_shard_utilisation_above_one_fails(sharded_leg):
    run, jobs, shards = sharded_leg
    first = dataclasses.replace(run.shards[0], utilization=1.01)
    bad = dataclasses.replace(run, shards=(first,) + run.shards[1:])
    assert checks.check_leg(bad, jobs, ow.TENANTS, shards)


# -- metro-window -------------------------------------------------------------


class SmallMetro(MetroWindow):
    SITES = 4
    SESSIONS_PER_SITE = 8
    WINDOW = 4.0


@pytest.fixture(scope="module")
def metro_out():
    window = SmallMetro()
    window.setup(SEED, JobLog())
    return window._window()


def _metro(sessions, reads, writes):
    return checks.check_metro(sessions, reads, writes, window=SmallMetro.WINDOW)


def test_real_metro_passes(metro_out):
    assert _metro(*metro_out) == []


def test_equal_hop_sessions_with_different_bytes_fail(metro_out):
    sessions, reads, writes = metro_out
    hops, src, dst, delivered = sessions[0]
    bad = [(hops, src, dst, delivered * (1.0 + 1e-6))] + sessions[1:]
    problems = _metro(bad, reads, writes)
    assert problems and "between" in problems[0]


def test_longer_path_delivering_more_fails(metro_out):
    sessions, reads, writes = metro_out
    most = max(s[3] for s in sessions)
    longest = max(s[0] for s in sessions)
    bad = [(h, a, b, most * 1.01 if h == longest else d) for h, a, b, d in sessions]
    assert any("shorter paths" in p for p in _metro(bad, reads, writes))


def test_site_over_its_storage_aggregate_fails(metro_out):
    sessions, reads, writes = metro_out
    tight = {site: cap * 1e-3 for site, cap in reads.items()}
    assert any("storage allows" in p for p in _metro(sessions, tight, writes))


# -- paper-figures ------------------------------------------------------------


def _figure(name):
    return importlib.import_module(REGISTRY[name]).run(**QUICK_PROFILE[name])


@pytest.fixture(scope="module")
def figures():
    return {name: _figure(name) for name in ("table1", "fig04", "fig08", "fault-tolerance")}


def test_real_figures_pass(figures):
    for name, result in figures.items():
        assert checks.check_figure(name, result, result.render()) == []


def test_throughput_above_achievable_fails(figures):
    result = figures["fig04"]
    cap = max(p.throughput_bps for p in result.points) * 10.0
    points = [dataclasses.replace(result.points[0], throughput_bps=cap)] + list(result.points[1:])
    bad = dataclasses.replace(result, points=points)
    assert any("achievable" in p for p in checks.check_figure("fig04", bad, "x"))


def test_fig04_loss_falling_with_concurrency_fails(figures):
    result = figures["fig04"]
    points = list(result.points)
    last = points[-1]
    points[-1] = dataclasses.replace(last, loss_rate=points[0].loss_rate * 0.5)
    bad = dataclasses.replace(result, points=points)
    assert any("loss falls" in p for p in checks.check_figure("fig04", bad, "x"))


@pytest.mark.parametrize("index", [0.49, 1.001])
def test_jain_index_outside_bounds_fails(figures, index):
    bad = dataclasses.replace(figures["fig08"], hc_late_jain=index)
    assert any("Jain" in p for p in checks.check_figure("fig08", bad, "x"))


def test_fault_tolerance_short_of_its_dataset_fails(figures):
    result = figures["fault-tolerance"]
    run = result.runs["retries-on"]
    short = dataclasses.replace(run, bytes_moved=run.bytes_moved - 1 * GB)
    bad = dataclasses.replace(result, runs={**result.runs, "retries-on": short})
    assert checks.check_figure("fault-tolerance", bad, "x")
    failed = dataclasses.replace(run, state="failed")
    bad = dataclasses.replace(result, runs={**result.runs, "retries-on": failed})
    assert checks.check_figure("fault-tolerance", bad, "x")


def test_empty_render_and_table1_over_bandwidth_fail(figures):
    result = figures["table1"]
    assert checks.check_figure("table1", result, "  ")
    row = dataclasses.replace(result.rows[0], max_throughput_bps=result.rows[0].bandwidth_bps * 2)
    bad = dataclasses.replace(result, rows=[row] + list(result.rows[1:]))
    assert checks.check_figure("table1", bad, "x")
