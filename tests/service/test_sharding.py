"""Sharded control plane: parity, placement, rebalance, isolation.

The headline contract is the first class: a 1-shard
:class:`ShardedControlPlane` driven exactly like an unsharded
:class:`ControlPlane` produces *byte-identical* results — same job
outcomes, same rejection reasons, and the same trace event stream down
to every encoded field.  The rest covers what only exists at 2+
shards: deterministic placement, rebalance-on-shed with
``shard.saturated`` accounting, shard-local breaker scoping, the
factory requirement, and the global quota staying global.
"""

from __future__ import annotations

import math

import pytest

from repro.config import DEFAULT_CONFIG
from repro.obs import InMemoryExporter
from repro.obs.events import JobRouted, ShardSaturated
from repro.obs.exporters import encode_event
from repro.obs.tracer import use_tracing
from repro.service import (
    BreakerState,
    ControlPlane,
    ControlPolicy,
    FalconService,
    JobState,
    Priority,
    ShardedControlPlane,
    ShardRouter,
    TenantSpec,
    make_shards,
)
from repro.service.control import SHED_BREAKER, SHED_QUEUE_FULL, SHED_QUOTA
from repro.service.sharding import PLACEMENTS, _stable_index
from repro.sim.engine import SimulationEngine
from repro.testbeds.presets import campus_cluster, hpclab
from repro.transfer.dataset import uniform_dataset
from repro.transfer.executor import FluidTransferNetwork
from repro.units import GB, MB


def _drive(plane, run_until, submit_testbed):
    """One scripted multi-tenant session against either plane kind."""
    plane.register_tenant(TenantSpec("alpha", weight=2.0, quota_rate=0.05, quota_burst=2))
    plane.register_tenant(TenantSpec("beta", priority=Priority.BEST_EFFORT))
    ds = uniform_dataset(3, 150 * MB)
    out = []
    for i in range(30):
        run_until(i * 5.0)
        tenant = "alpha" if i % 3 else "beta"
        job = plane.submit(submit_testbed, ds, tenant, name=f"j{i}")
        out.append((job.name, job.state.name, job.rejection_reason))
    run_until(1200.0)
    return out


class TestShardParity:
    """shards=1 is the unsharded control plane, bit for bit."""

    def test_one_shard_matches_unsharded_plane_exactly(self):
        policy = ControlPolicy(max_queue=6)

        flat_exp = InMemoryExporter()
        with use_tracing(flat_exp):
            engine = SimulationEngine(dt=DEFAULT_CONFIG.dt)
            network = FluidTransferNetwork(engine, DEFAULT_CONFIG)
            service = FalconService(engine=engine, network=network, max_active=4, seed=3)
            flat = ControlPlane(service, policy)
            flat_out = _drive(flat, engine.run_until, hpclab())

        shard_exp = InMemoryExporter()
        with use_tracing(shard_exp):
            shards = make_shards(1, seed=3, max_active=4)
            plane = ShardedControlPlane(shards, policy)
            # A bare Testbed is allowed at one shard — parity with the
            # unsharded call signature.
            shard_out = _drive(plane, plane.run_until, hpclab())

        assert shard_out == flat_out
        flat_events = [encode_event(e) for e in flat_exp.events]
        shard_events = [encode_event(e) for e in shard_exp.events]
        assert shard_events == flat_events

    def test_one_shard_emits_no_routing_events(self):
        exporter = InMemoryExporter()
        with use_tracing(exporter):
            plane = ShardedControlPlane(make_shards(1, seed=0))
            plane.register_tenant(TenantSpec("t"))
            plane.submit(hpclab(), uniform_dataset(1, 64 * MB), "t")
        kinds = {type(e) for e in exporter.events}
        assert JobRouted not in kinds
        assert ShardSaturated not in kinds


class TestPlacement:
    def test_policy_vocabulary_is_closed(self):
        shards = make_shards(2, seed=0)
        with pytest.raises(ValueError, match="unknown placement"):
            ShardRouter(shards, "round_robin")
        for policy in PLACEMENTS:
            ShardRouter(shards, policy)

    def test_stable_index_is_deterministic_and_in_range(self):
        for n in (1, 2, 4, 7):
            for key in ("hpclab", "campus", "tenant-a"):
                i = _stable_index(key, n)
                assert i == _stable_index(key, n)
                assert 0 <= i < n

    def test_affinity_policies_ignore_load(self):
        shards = make_shards(4, seed=0)
        by_tenant = ShardRouter(shards, "by_tenant")
        by_testbed = ShardRouter(shards, "by_testbed")
        first = by_tenant.place("alpha", "hpclab")
        assert all(by_tenant.place("alpha", f"tb{i}") is first for i in range(8))
        first = by_testbed.place("alpha", "hpclab")
        assert all(by_testbed.place(f"t{i}", "hpclab") is first for i in range(8))

    def test_least_loaded_breaks_ties_by_index(self):
        shards = make_shards(3, seed=0)
        router = ShardRouter(shards, "least_loaded")
        assert router.place("any", "any") is shards[0]

    def test_same_seed_same_routing(self):
        def session():
            plane = ShardedControlPlane(make_shards(4, seed=11), placement="least_loaded")
            plane.register_tenant(TenantSpec("t"))
            names = []
            for i in range(24):
                plane.run_until(i * 2.0)
                job = plane.submit(hpclab, uniform_dataset(2, 400 * MB), "t", name=f"j{i}")
                shard = next(
                    s for s in plane.shards if any(j is job for j in s.service.jobs)
                )
                names.append(shard.name)
            return names

        assert session() == session()

    def test_multi_shard_requires_testbed_factory(self):
        plane = ShardedControlPlane(make_shards(2, seed=0))
        plane.register_tenant(TenantSpec("t"))
        with pytest.raises(ValueError, match="factory"):
            plane.submit(hpclab(), uniform_dataset(1, 64 * MB), "t")

    def test_shards_localize_independent_testbed_replicas(self):
        shards = make_shards(3, seed=0)
        replicas = [shard.localize(hpclab) for shard in shards]
        assert len({id(r) for r in replicas}) == 3
        assert all(shard.localize(hpclab) is replicas[i] for i, shard in enumerate(shards))


class TestRebalanceOnShed:
    def _saturating_plane(self, rebalance=True):
        # by_tenant pins every job's home to one shard; single slot +
        # tiny queue saturate it after a couple of submissions.
        shards = make_shards(3, seed=0, max_active=1)
        plane = ShardedControlPlane(
            shards,
            ControlPolicy(max_queue=2, degrade_at=1.0, preemption=False),
            placement="by_tenant",
            rebalance=rebalance,
        )
        plane.register_tenant(TenantSpec("pinned"))
        return plane

    def test_saturated_home_reroutes_instead_of_shedding(self):
        plane = self._saturating_plane()
        exporter = InMemoryExporter()
        with use_tracing(exporter):
            jobs = [
                plane.submit(hpclab, uniform_dataset(1, 10 * GB), "pinned", name=f"j{i}")
                for i in range(9)
            ]
        assert all(j.state is not JobState.REJECTED for j in jobs)
        saturated = [e for e in exporter.events if isinstance(e, ShardSaturated)]
        assert saturated
        assert all(e.reason == SHED_QUEUE_FULL for e in saturated)
        assert all(e.rerouted_to != "" for e in saturated)
        # Overflow landed on shards other than the pinned home.
        homes = {e.shard for e in saturated}
        assert all(e.rerouted_to not in homes for e in saturated)

    def test_rebalance_off_sheds_at_home(self):
        plane = self._saturating_plane(rebalance=False)
        exporter = InMemoryExporter()
        with use_tracing(exporter):
            jobs = [
                plane.submit(hpclab, uniform_dataset(1, 10 * GB), "pinned", name=f"j{i}")
                for i in range(9)
            ]
        shed = [j for j in jobs if j.state is JobState.REJECTED]
        assert shed
        assert all(j.rejection_reason == SHED_QUEUE_FULL for j in shed)
        saturated = [e for e in exporter.events if isinstance(e, ShardSaturated)]
        assert saturated
        assert all(e.rerouted_to == "" for e in saturated)

    def test_routed_events_cover_admitted_jobs(self):
        plane = ShardedControlPlane(make_shards(2, seed=0), placement="least_loaded")
        plane.register_tenant(TenantSpec("t"))
        exporter = InMemoryExporter()
        with use_tracing(exporter):
            jobs = [
                plane.submit(hpclab, uniform_dataset(1, 64 * MB), "t", name=f"j{i}")
                for i in range(6)
            ]
        routed = [e for e in exporter.events if isinstance(e, JobRouted)]
        assert len(routed) == len(jobs)
        assert {e.shard for e in routed} <= {s.name for s in plane.shards}
        assert all(e.policy == "least_loaded" for e in routed)


class TestShardLocalScoping:
    def test_breaker_opens_on_one_shard_only(self):
        shards = make_shards(2, seed=0, max_active=2)
        plane = ShardedControlPlane(
            shards,
            ControlPolicy(max_queue=8, breaker_threshold=2, preemption=False),
            placement="by_tenant",
            rebalance=False,
        )
        plane.register_tenant(TenantSpec("t"))
        home = plane.router.place("t", "hpclab")
        other = next(s for s in shards if s is not home)
        # Fail enough jobs on the home shard to trip its breaker.
        for i in range(2):
            job = plane.submit(hpclab, uniform_dataset(1, 10 * GB), "t", name=f"f{i}")
            home.service.crash_job(job)
        assert home.plane.breaker_state(home.localize(hpclab)) is BreakerState.OPEN
        assert other.plane.breaker_state(other.localize(hpclab)) is BreakerState.CLOSED
        job = plane.submit(hpclab, uniform_dataset(1, 64 * MB), "t", name="after")
        assert job.state is JobState.REJECTED
        assert job.rejection_reason == SHED_BREAKER

    def test_breaker_refusal_reroutes_when_rebalancing(self):
        shards = make_shards(2, seed=0, max_active=2)
        plane = ShardedControlPlane(
            shards,
            ControlPolicy(max_queue=8, breaker_threshold=2, preemption=False),
            placement="by_tenant",
        )
        plane.register_tenant(TenantSpec("t"))
        home = plane.router.place("t", "hpclab")
        other = next(s for s in shards if s is not home)
        for i in range(2):
            job = plane.submit(hpclab, uniform_dataset(1, 10 * GB), "t", name=f"f{i}")
            home.service.crash_job(job)
        job = plane.submit(hpclab, uniform_dataset(1, 64 * MB), "t", name="after")
        assert job.state is not JobState.REJECTED
        assert any(j is job for j in other.service.jobs)

    def test_quota_stays_global_across_shards(self):
        plane = ShardedControlPlane(make_shards(4, seed=0), placement="least_loaded")
        plane.register_tenant(TenantSpec("capped", quota_rate=0.01, quota_burst=2))
        jobs = [
            plane.submit(hpclab, uniform_dataset(1, 64 * MB), "capped", name=f"j{i}")
            for i in range(8)
        ]
        shed = [j for j in jobs if j.state is JobState.REJECTED]
        assert len(shed) == 6  # burst of 2, zero refill at t=0
        assert all(j.rejection_reason == SHED_QUOTA for j in shed)
        # Sub-planes hold the unlimited replica, not the real quota.
        for shard in plane.shards:
            assert shard.plane._tenants["capped"].spec.quota_rate == math.inf


class TestMakeShards:
    def test_shards_are_fully_independent(self):
        shards = make_shards(3, seed=5)
        assert len({id(s.engine) for s in shards}) == 3
        assert len({id(s.network) for s in shards}) == 3
        assert len({id(s.service) for s in shards}) == 3
        assert [s.name for s in shards] == ["shard0", "shard1", "shard2"]
        assert shards[0].service.seed == 5  # parity: shard 0 keeps the base seed
        assert len({s.service.seed for s in shards}) == 3

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            make_shards(0)
        with pytest.raises(ValueError):
            ShardedControlPlane([])

    def test_distinct_testbeds_route_independently(self):
        plane = ShardedControlPlane(make_shards(4, seed=0), placement="by_testbed")
        plane.register_tenant(TenantSpec("t"))
        a = plane.submit(hpclab, uniform_dataset(1, 64 * MB), "t", name="a")
        b = plane.submit(campus_cluster, uniform_dataset(1, 64 * MB), "t", name="b")
        shard_of = {
            job.name: shard.name
            for shard in plane.shards
            for job in shard.service.jobs
        }
        assert shard_of["a"] == _to_name(plane, "HPCLab")
        assert shard_of["b"] == _to_name(plane, "Campus Cluster")
        assert a.state is not JobState.REJECTED
        assert b.state is not JobState.REJECTED


class TestShardScaling:
    """Shards are independent engines, so admitted goodput scales with them.

    Both runs see the same offered load, sized to oversubscribe four
    shards' capacity 2.4x over the arrival window and submitted at a
    fixed cadence, then run to twice that window of simulated time.  The
    1-shard run saturates (its bounded queue sheds the excess); the
    4-shard run spreads it, so the ratio of completed bytes is the
    admitted-goodput scaling factor.  Simulated bytes, not wall time:
    the test is deterministic.
    """

    SHARDS = 4
    OVERSUBSCRIBE = 2.4
    JOBS = 100
    HORIZON = 60.0

    def _moved(self, n_shards: int) -> float:
        plane = ShardedControlPlane(
            make_shards(n_shards, seed=0, max_active=8), ControlPolicy(max_queue=64)
        )
        plane.register_tenant(TenantSpec("load"))
        capacity = hpclab().max_throughput() / 8.0 * self.HORIZON * self.SHARDS
        per_job = self.OVERSUBSCRIBE * capacity / self.JOBS
        interval = self.HORIZON / self.JOBS
        for i in range(self.JOBS):
            plane.run_until(i * interval)
            plane.submit(hpclab, uniform_dataset(1, per_job), "load", name=f"j{i}")
        plane.run_until(2.0 * self.HORIZON)
        return sum(
            job.report.bytes_moved for job in plane.jobs() if job.state is JobState.COMPLETED
        )

    def test_four_shards_move_at_least_three_times_one(self):
        one = self._moved(1)
        assert one > 0.0
        assert self._moved(self.SHARDS) >= 3.0 * one


def _to_name(plane, testbed_name: str) -> str:
    return plane.shards[_stable_index(testbed_name, len(plane.shards))].name
