"""Fluid executor tests: joint arbitration across resources and sessions."""

from __future__ import annotations

import pytest

from repro.hosts.dtn import DataTransferNode
from repro.hosts.nic import Nic
from repro.network.path import build_dumbbell
from repro.sim.engine import SimulationEngine
from repro.storage.parallel_fs import ParallelFileSystem
from repro.testbeds.presets import emulab_fig4, hpclab
from repro.transfer.dataset import uniform_dataset
from repro.transfer.executor import FluidTransferNetwork
from repro.transfer.session import TransferParams
from repro.units import Gbps, MB, Mbps


def run_session(testbed, n, seconds=20.0, dataset=None):
    engine = SimulationEngine(dt=0.1)
    net = FluidTransferNetwork(engine)
    session = testbed.new_session(
        dataset or uniform_dataset(50), params=TransferParams(concurrency=n), repeat=True
    )
    net.add_session(session)
    engine.run_for(seconds)
    return session, engine, net


class TestSingleBottlenecks:
    def test_per_process_cap_binds_at_low_concurrency(self):
        tb = emulab_fig4()  # 10 Mbps per process
        session, _, _ = run_session(tb, n=1)
        sample = session.monitor.take(concurrency=1)
        assert sample.throughput_bps == pytest.approx(10 * Mbps, rel=0.05)

    def test_link_binds_at_high_concurrency(self):
        tb = emulab_fig4()
        session, _, _ = run_session(tb, n=20)
        sample = session.monitor.take(concurrency=20)
        assert sample.throughput_bps <= 100 * Mbps * 1.01
        assert sample.throughput_bps >= 90 * Mbps

    def test_storage_aggregate_binds(self):
        tb = hpclab()  # write aggregate 28G
        session, _, _ = run_session(tb, n=16)
        sample = session.monitor.take(concurrency=16)
        assert sample.throughput_bps <= 28 * Gbps
        assert sample.throughput_bps >= 22 * Gbps

    def test_loss_appears_only_past_saturation(self):
        below, _, _ = run_session(emulab_fig4(), n=8)
        above, _, _ = run_session(emulab_fig4(), n=24)
        assert below.monitor.take(concurrency=8).loss_rate < 0.005
        assert above.monitor.take(concurrency=24).loss_rate > 0.02


class TestConservation:
    def test_throughput_never_exceeds_any_capacity(self):
        for tb_factory in (emulab_fig4, hpclab):
            tb = tb_factory()
            session, _, _ = run_session(tb, n=32)
            sample = session.monitor.take(concurrency=32)
            cap = min(
                tb.path.capacity,
                tb.source.nic.capacity,
                tb.destination.nic.capacity,
                tb.source.storage.aggregate_read_bps,
                tb.destination.storage.aggregate_write_bps,
            )
            assert sample.throughput_bps <= cap * 1.01

    def test_bytes_conserved_to_completion(self):
        tb = emulab_fig4()
        engine = SimulationEngine(dt=0.1)
        net = FluidTransferNetwork(engine)
        dataset = uniform_dataset(5, 10 * MB)  # 50 MB total
        session = tb.new_session(dataset, params=TransferParams(concurrency=5))
        net.add_session(session)
        engine.run_for(60.0)
        assert not session.active
        assert session.total_good_bytes == pytest.approx(50 * MB, rel=1e-3)

    def test_finished_session_removed(self):
        tb = emulab_fig4()
        engine = SimulationEngine(dt=0.1)
        net = FluidTransferNetwork(engine)
        session = tb.new_session(uniform_dataset(2, 1 * MB), params=TransferParams(concurrency=2))
        net.add_session(session)
        engine.run_for(30.0)
        assert session not in net.sessions


class TestMultiSessionSharing:
    def test_equal_sessions_share_equally(self):
        tb = emulab_fig4()
        engine = SimulationEngine(dt=0.1)
        net = FluidTransferNetwork(engine)
        sessions = [
            tb.new_session(uniform_dataset(50), params=TransferParams(concurrency=10), repeat=True)
            for _ in range(2)
        ]
        for s in sessions:
            net.add_session(s)
        engine.run_for(30.0)
        rates = [s.monitor.take(concurrency=10).throughput_bps for s in sessions]
        assert rates[0] == pytest.approx(rates[1], rel=0.05)
        assert sum(rates) >= 90 * Mbps

    def test_share_proportional_to_flow_count(self):
        """At a saturated link, session share follows its stream count."""
        tb = emulab_fig4()
        engine = SimulationEngine(dt=0.1)
        net = FluidTransferNetwork(engine)
        small = tb.new_session(uniform_dataset(50), params=TransferParams(concurrency=10), repeat=True)
        big = tb.new_session(uniform_dataset(50), params=TransferParams(concurrency=30), repeat=True)
        net.add_session(small)
        net.add_session(big)
        engine.run_for(30.0)
        r_small = small.monitor.take(concurrency=10).throughput_bps
        r_big = big.monitor.take(concurrency=30).throughput_bps
        assert r_big / r_small == pytest.approx(3.0, rel=0.15)

    def test_parallelism_multiplies_flow_share(self):
        tb = emulab_fig4()
        engine = SimulationEngine(dt=0.1)
        net = FluidTransferNetwork(engine)
        # Same concurrency; one uses parallelism 3. Per-process I/O is
        # the throttle, so extra streams only matter at the link.
        plain = tb.new_session(uniform_dataset(50), params=TransferParams(concurrency=8), repeat=True)
        striped = tb.new_session(
            uniform_dataset(50), params=TransferParams(concurrency=8, parallelism=3), repeat=True
        )
        net.add_session(plain)
        net.add_session(striped)
        engine.run_for(30.0)
        r_plain = plain.monitor.take(concurrency=8).throughput_bps
        r_striped = striped.monitor.take(concurrency=8).throughput_bps
        # Striped session holds 24 of 32 flows but is I/O-capped at 80 Mbps.
        assert r_striped > r_plain

    def test_late_joiner_takes_share(self):
        tb = emulab_fig4()
        engine = SimulationEngine(dt=0.1)
        net = FluidTransferNetwork(engine)
        first = tb.new_session(uniform_dataset(50), params=TransferParams(concurrency=10), repeat=True)
        net.add_session(first)
        engine.run_for(20.0)
        alone = first.monitor.take(concurrency=10).throughput_bps
        second = tb.new_session(uniform_dataset(50), params=TransferParams(concurrency=10), repeat=True)
        net.add_session(second)
        engine.run_for(20.0)
        shared = first.monitor.take(concurrency=10).throughput_bps
        assert shared < alone * 0.7

    def test_departure_frees_capacity(self):
        tb = emulab_fig4()
        engine = SimulationEngine(dt=0.1)
        net = FluidTransferNetwork(engine)
        stay = tb.new_session(uniform_dataset(50), params=TransferParams(concurrency=10), repeat=True)
        leave = tb.new_session(uniform_dataset(50), params=TransferParams(concurrency=10), repeat=True)
        net.add_session(stay)
        net.add_session(leave)
        engine.run_for(20.0)
        stay.monitor.take(concurrency=10)
        leave.finished_at = engine.now
        net.remove_session(leave)
        engine.run_for(20.0)
        after = stay.monitor.take(concurrency=10).throughput_bps
        assert after >= 90 * Mbps

    def test_duplicate_add_rejected(self):
        tb = emulab_fig4()
        engine = SimulationEngine(dt=0.1)
        net = FluidTransferNetwork(engine)
        s = tb.new_session(uniform_dataset(5), repeat=True)
        net.add_session(s)
        with pytest.raises(ValueError):
            net.add_session(s)


class TestCpuOverhead:
    def test_oversubscription_reduces_per_worker_cap(self):
        storage = ParallelFileSystem(
            per_process_read_bps=1 * Gbps,
            per_process_write_bps=1 * Gbps,
            aggregate_read_bps=100 * Gbps,
            aggregate_write_bps=100 * Gbps,
        )
        from repro.hosts.cpu import CpuModel
        from repro.testbeds.base import Testbed

        src = DataTransferNode(
            "s", storage=storage, nic=Nic(100 * Gbps), cpu=CpuModel(cores=4, oversubscription_penalty=1.0)
        )
        dst = DataTransferNode(
            "d",
            storage=ParallelFileSystem(
                per_process_read_bps=1 * Gbps,
                per_process_write_bps=1 * Gbps,
                aggregate_read_bps=100 * Gbps,
                aggregate_write_bps=100 * Gbps,
            ),
            nic=Nic(100 * Gbps),
            cpu=CpuModel(cores=4, oversubscription_penalty=1.0),
        )
        tb = Testbed(
            name="cpu-test",
            source=src,
            destination=dst,
            path=build_dumbbell(100 * Gbps, 0.001),
            sample_interval=3.0,
            bottleneck="CPU",
        )
        few, _, _ = run_session(tb, n=4)
        many, _, _ = run_session(tb, n=16)
        per_worker_few = few.monitor.take(concurrency=4).per_worker_bps
        per_worker_many = many.monitor.take(concurrency=16).per_worker_bps
        assert per_worker_many < per_worker_few * 0.6


class TestEquilibriumEpochCache:
    """Epoch-keyed reuse of the converged waterfill allocation.

    Steady-state steps must skip the demand-cap/waterfill/loss pipeline
    entirely, and every input change must bump an epoch so the cache
    can never serve a stale equilibrium.
    """

    def steady_setup(self):
        engine = SimulationEngine(dt=0.1)
        net = FluidTransferNetwork(engine)
        # 1 GB files at a 100 Mbps bottleneck: nothing completes inside
        # these short runs, so demand stays frozen after the initial
        # assignment scan.
        session = emulab_fig4().new_session(
            uniform_dataset(50), params=TransferParams(concurrency=10), repeat=True
        )
        net.add_session(session)
        return engine, net, session

    def test_steady_state_steps_skip_the_waterfill(self):
        engine, net, _ = self.steady_setup()
        prof = engine.enable_profiling()
        engine.run_for(20.0)
        recomputes = prof.counts.get("waterfill", 0)
        hits = prof.counts.get("equilibrium_cache", 0)
        assert recomputes + hits == prof.fluid_steps
        # The initial assignment (and spawn-gap expiries) cost a few
        # recomputes; after that every step is an epoch hit.
        assert hits > prof.fluid_steps * 0.8
        assert recomputes < prof.fluid_steps * 0.2

    def test_rebalance_traced_once_per_waterfill(self, monkeypatch):
        from repro.obs import InMemoryExporter, use_tracing
        from repro.obs.events import EVENT_TYPES

        waterfills = 0
        waterfill = FluidTransferNetwork._waterfill

        def counted(self, *args):
            nonlocal waterfills
            waterfills += 1
            return waterfill(self, *args)

        monkeypatch.setattr(FluidTransferNetwork, "_waterfill", counted)
        engine, net, session = self.steady_setup()
        steps = 0
        step = engine.fluid_step

        def counted_step(now, dt):
            nonlocal steps
            steps += 1
            step(now, dt)

        engine.fluid_step = counted_step
        sink = InMemoryExporter()
        with use_tracing(sink):
            engine.run_for(2.0)
            # A joiner and a resize force topology rebuilds mid-run.
            net.add_session(
                emulab_fig4().new_session(
                    uniform_dataset(50), params=TransferParams(concurrency=4), repeat=True
                )
            )
            engine.run_for(2.0)
            session.set_concurrency(12)
            engine.run_for(4.0)
        types = [ev.type for ev in sink.events]
        rebalances = types.count("fluid.rebalance")
        assert types.count("fluid.topology_rebuild") == 3
        assert rebalances == waterfills
        assert 3 <= rebalances < steps
        assert "engine.step" not in EVENT_TYPES

    def test_profile_times_every_topology_rebuild(self):
        engine, net, session = self.steady_setup()
        prof = engine.enable_profiling()
        engine.run_for(1.0)
        session.set_concurrency(12)
        engine.run_for(1.0)
        assert prof.counts["topology"] == 2

    def test_demand_epoch_bumped_by_crash_and_reassignment(self):
        # The initial add_session assignment predates the hook on
        # purpose (no cache exists yet); what matters is every change
        # *after* the first equilibrium is memoized.
        engine, net, session = self.steady_setup()
        engine.run_for(1.0)
        before = net._demand_epoch
        session.crash_worker(0)  # drops a file: demand changed
        assert net._demand_epoch == before + 1
        engine.run_for(0.5)  # next step's scan refills the idle worker
        assert net._demand_epoch >= before + 2

    def test_link_epoch_bumped_by_loss_burst(self):
        from repro.faults import FaultInjector
        from repro.faults.plan import FaultPlan, LossBurst
        from repro.sim.rng import RngStreams

        engine, net, session = self.steady_setup()
        plan = FaultPlan((LossBurst(at=1.0, duration=2.0, loss=0.05),))
        FaultInjector(engine, net, plan, streams=RngStreams(3)).arm()
        before = net._link_epoch
        engine.run_for(5.0)
        # One bump at burst start, one at recovery.
        assert net._link_epoch == before + 2

    def test_loss_burst_reaches_session_and_clears(self):
        from repro.faults import FaultInjector
        from repro.faults.plan import FaultPlan, LossBurst
        from repro.sim.rng import RngStreams

        # Steady steps replay the equilibrium from the epoch cache; a
        # missed link-epoch bump would keep serving pre-burst losses
        # inside the burst, or burst losses after recovery.  Sample the
        # session's loss before, inside and after the burst window.
        engine, net, session = self.steady_setup()
        plan = FaultPlan((LossBurst(at=2.0, duration=2.0, loss=0.05),))
        FaultInjector(engine, net, plan, streams=RngStreams(3)).arm()
        seen = []
        for t in (1.5, 3.0, 7.0):
            engine.schedule_at(t, lambda: seen.append(session.current_loss))
        engine.run_for(8.0)
        before, inside, after = seen
        assert inside >= 0.05
        assert after < inside - 0.04
        assert after == pytest.approx(before)
