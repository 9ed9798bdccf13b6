"""Batched-engine parity: the BatchStore path must reproduce the
per-session reference exactly.

The contiguous global-array advance in `repro.sim.batch.BatchStore`
promises the same simulation outcomes as the per-session reference
(`PerSessionNetwork` in `tests/integration/per_session.py`), down to
the last float bit on the golden scenarios.  Three rules make bit-identity
achievable (same elementwise expressions, contiguous-slice reductions,
per-worker cascade in worker order — see the `repro.sim.batch` module
docstring); this test is what holds the implementation to them.

Scenarios:

* the existing golden hot-path scenario (mid-run concurrency and
  parallelism changes, a session finishing and leaving) — bit-identical;
* an 8 x 64 competing-backbone scenario with small files (dense
  completion cascades), an injected stall, and an injected crash —
  bit-identical;
* the 256-session metro ring preset — compared at rel=1e-12: the
  scenario is two orders of magnitude larger, so we document a
  tolerance rather than promise bit-equality at a scale no golden
  pins, but in practice the paths agree exactly there too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hosts.dtn import DataTransferNode
from repro.hosts.nic import Nic
from repro.network.link import Link
from repro.network.path import Path
from repro.network.queue import DropTailLossModel, NoLossModel
from repro.sim.engine import SimulationEngine
from repro.storage.parallel_fs import ParallelFileSystem
from repro.testbeds.base import Testbed
from repro.testbeds.presets import metro
from repro.transfer.dataset import uniform_dataset
from repro.transfer.executor import FluidTransferNetwork
from repro.transfer.session import TransferParams, TransferSession
from repro.units import GB, Gbps, MB, milliseconds

from tests.integration.per_session import PerSessionNetwork
from tests.integration.test_golden_hotpath import run_scenario as run_golden_scenario


def session_state(s: TransferSession) -> dict:
    """Everything a fluid step can touch, exactly as stored."""
    return {
        "good": s.total_good_bytes,
        "lost": s.total_lost_bytes,
        "files": s.files_completed,
        "requeued": s.files_requeued,
        "crashes": s.worker_crashes,
        "stalled_s": s.stalled_seconds,
        "process_s": s.process_seconds,
        "loss": s.current_loss,
        "finished": s.finished_at,
        "rates": s.rates.tolist(),
        "file_size": s.file_size.tolist(),
        "file_done": s.file_done.tolist(),
        "gap_left": s.gap_left.tolist(),
        "stall_left": s.stall_left.tolist(),
        "attempts": s.attempts.tolist(),
        "has_file": s.has_file.tolist(),
        "monitor_elapsed": s.monitor.elapsed,
    }


def run_competition(
    network_cls: type[FluidTransferNetwork] = FluidTransferNetwork,
) -> list[dict]:
    """8 sessions x 64 workers, one saturated backbone, faults injected.

    Small files keep the completion cascade dense (many workers finish
    per step), and the scheduled stall/crash exercise the batched stall
    branch and the view write-through of fault injection.
    """
    engine = SimulationEngine(dt=0.1)
    network = network_cls(engine)
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

    engine.schedule_at(2.0, lambda: sessions[3].stall_worker(10, 1.7))
    engine.schedule_at(3.0, lambda: sessions[5].crash_worker(0))
    engine.schedule_at(4.0, lambda: sessions[1].set_concurrency(48))
    engine.run_for(8.0)
    return [session_state(s) for s in sessions]


def run_metro(network_cls: type[FluidTransferNetwork] = FluidTransferNetwork) -> list[dict]:
    """The 256-session metro ring, short horizon."""
    engine = SimulationEngine(dt=0.1)
    network = network_cls(engine)
    sessions = []
    for tb in metro():
        session = tb.new_session(
            uniform_dataset(64, 1 * GB),
            params=TransferParams(concurrency=64, parallelism=2),
            repeat=True,
        )
        network.add_session(session)
        sessions.append(session)
    engine.run_for(3.0)
    return [session_state(s) for s in sessions]


class TestBatchParity:
    def test_golden_scenario_bit_identical(self):
        # The existing golden scenario: worker resizes, a parallelism
        # change, and a session completing mid-run.  Exact equality —
        # every float bit, not approx.
        assert run_golden_scenario() == run_golden_scenario(PerSessionNetwork)

    def test_competition_with_faults_bit_identical(self):
        batched = run_competition()
        reference = run_competition(PerSessionNetwork)
        assert batched == reference

    def test_metro_within_documented_tolerance(self):
        batched = run_metro()
        reference = run_metro(PerSessionNetwork)
        for got, want in zip(batched, reference):
            for key in ("files", "requeued", "crashes", "has_file", "attempts"):
                assert got[key] == want[key], key
            for key in (
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
            ):
                np.testing.assert_allclose(got[key], want[key], rtol=1e-12, err_msg=key)
