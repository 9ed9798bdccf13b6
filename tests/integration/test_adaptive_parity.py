"""Adaptive-stepping parity: event-driven jumps must reproduce fixed-dt.

The adaptive engine (ISSUE 9) replaces runs of steady-state fixed-dt
steps with one closed-form jump over the same grid.  The jump evaluates
the oracle's discretized TCP ramp exactly (geometric series instead of
step-by-step accumulation), so the only divergence allowed is float
round-off — these tests pin that contract on the same scenarios the
batched parity suite uses:

* the 256-session metro ring, where steady state dominates and a single
  jump can cover most of the horizon;
* the 8 x 64 competing-backbone scenario with small files and injected
  faults (stall, crash, loss burst, outage, concurrency change), where
  dense completions and epoch bumps force constant cache invalidation —
  adaptive must degrade gracefully to normal steps and stay correct;
* same-seed adaptive replay, which must be byte-identical (the adaptive
  trajectory is just as deterministic as the fixed one).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultInjector
from repro.faults.plan import FaultPlan, LinkOutage, LossBurst, TransferStall, WorkerCrash
from repro.hosts.dtn import DataTransferNode
from repro.hosts.nic import Nic
from repro.network.link import Link
from repro.network.path import Path
from repro.network.queue import DropTailLossModel, NoLossModel
from repro.obs import InMemoryExporter, use_tracing
from repro.obs.events import AdaptiveJump
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngStreams
from repro.storage.parallel_fs import ParallelFileSystem
from repro.testbeds.base import Testbed
from repro.testbeds.presets import metro
from repro.transfer.dataset import uniform_dataset
from repro.transfer.executor import FluidTransferNetwork
from repro.transfer.session import TransferParams
from repro.units import GB, Gbps, MB, milliseconds

from tests.integration.test_batch_parity import session_state

#: Closed-form jumps resum the oracle's per-step geometric series, so
#: agreement is float round-off, not bit-identity.  In practice the
#: metro scenario lands around 1e-15 relative; 1e-9 leaves headroom
#: without ever excusing a modelling error.
ADAPTIVE_RTOL = 1e-9

INT_KEYS = ("files", "requeued", "crashes", "has_file", "attempts")
FLOAT_KEYS = (
    "good",
    "lost",
    "stalled_s",
    "process_s",
    "loss",
    "rates",
    "file_size",
    "file_done",
    "gap_left",
    "stall_left",
    "monitor_elapsed",
)


def assert_states_close(adaptive: list[dict], fixed: list[dict]) -> None:
    assert len(adaptive) == len(fixed)
    for got, want in zip(adaptive, fixed):
        for key in INT_KEYS:
            assert got[key] == want[key], key
        assert (got["finished"] is None) == (want["finished"] is None)
        if got["finished"] is not None:
            assert got["finished"] == pytest.approx(want["finished"], abs=1e-9)
        for key in FLOAT_KEYS:
            np.testing.assert_allclose(
                got[key], want[key], rtol=ADAPTIVE_RTOL, atol=1e-9, err_msg=key
            )


def run_metro(adaptive: bool, sim_time: float = 3.0) -> list[dict]:
    """The 256-session metro ring: long steady-state spans."""
    engine = SimulationEngine(dt=0.1)
    network = FluidTransferNetwork(engine, adaptive=adaptive)
    sessions = []
    for tb in metro():
        session = tb.new_session(
            uniform_dataset(64, 1 * GB),
            params=TransferParams(concurrency=64, parallelism=2),
            repeat=True,
        )
        network.add_session(session)
        sessions.append(session)
    engine.run_for(sim_time)
    return [session_state(s) for s in sessions]


def run_faulted_competition(adaptive: bool) -> list[dict]:
    """8 x 64 on one backbone with every fault class the jump must survive.

    Small files keep completions dense (forcing normal steps through
    the demand-epoch bumps); the loss burst and outage exercise the
    link-epoch and topology invalidation paths mid-run; the direct
    stall/crash/concurrency events hit the session-level hooks.
    """
    engine = SimulationEngine(dt=0.1)
    network = FluidTransferNetwork(engine, adaptive=adaptive)
    backbone = Link(
        "backbone", 10 * Gbps, delay=milliseconds(10), loss_model=DropTailLossModel()
    )
    lossless = NoLossModel()
    sessions = []
    for i in range(8):
        src = DataTransferNode(
            f"src-{i}",
            storage=ParallelFileSystem(name=f"pfs-{i}"),
            nic=Nic(40 * Gbps, name=f"nic-s{i}"),
        )
        dst = DataTransferNode(
            f"dst-{i}",
            storage=ParallelFileSystem(name=f"pfs-{i}d"),
            nic=Nic(40 * Gbps, name=f"nic-d{i}"),
        )
        path = Path(
            links=(
                Link(f"edge-s{i}", 40 * Gbps, delay=milliseconds(1), loss_model=lossless),
                backbone,
                Link(f"edge-d{i}", 40 * Gbps, delay=milliseconds(1), loss_model=lossless),
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
            uniform_dataset(400, 8 * MB),
            name=f"s{i}",
            params=TransferParams(concurrency=64, parallelism=2),
            repeat=True,
        )
        network.add_session(session)
        sessions.append(session)

    plan = FaultPlan(
        (
            TransferStall(at=2.0, session="s3", worker=10, duration=1.7),
            WorkerCrash(at=3.0, session="s5", worker=0),
            LossBurst(at=3.5, duration=2.0, loss=0.05),
            LinkOutage(at=5.5, duration=1.0),
        )
    )
    FaultInjector(engine, network, plan, streams=RngStreams(11)).arm()
    engine.schedule_at(4.0, lambda: sessions[1].set_concurrency(48))
    engine.run_for(8.0)
    return [session_state(s) for s in sessions]


class TestAdaptiveParity:
    def test_metro_matches_fixed_dt(self):
        assert_states_close(run_metro(adaptive=True), run_metro(adaptive=False))

    def test_faulted_competition_matches_fixed_dt(self):
        assert_states_close(
            run_faulted_competition(adaptive=True),
            run_faulted_competition(adaptive=False),
        )

    def test_same_seed_adaptive_replay_is_byte_identical(self):
        assert run_faulted_competition(adaptive=True) == run_faulted_competition(
            adaptive=True
        )

    def test_adaptive_jumps_actually_taken(self):
        # The steady metro run must coalesce steps — otherwise the
        # parity above is vacuous.  Every jump's span sits on the fixed
        # grid (an integer multiple of the step it replaced).
        mem = InMemoryExporter()
        with use_tracing(mem):
            run_metro(adaptive=True)
        jumps = [e for e in mem.events if isinstance(e, AdaptiveJump)]
        assert jumps, "steady-state metro run produced no adaptive jumps"
        assert sum(j.skipped for j in jumps) > 0
        for j in jumps:
            assert j.dt == pytest.approx(j.step_s * (j.skipped + 1), rel=1e-12)

    def test_fixed_dt_run_emits_no_jump_events(self):
        mem = InMemoryExporter()
        with use_tracing(mem):
            run_metro(adaptive=False, sim_time=1.0)
        assert not [e for e in mem.events if isinstance(e, AdaptiveJump)]
