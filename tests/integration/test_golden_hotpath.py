"""Golden regression: the fluid hot path must be behaviour-preserving.

The topology-cache / vectorized-advance optimization (PR 1) promises
*identical* simulation outcomes — it may only change how fast a step
computes, never what it computes.  This test pins total good bytes,
files completed, and final concurrency for a fixed-seed competing
scenario that exercises every hot-path branch: shared-backbone
arbitration, loss, file completions and inter-file gaps, mid-run
concurrency *and* parallelism changes (topology-cache invalidation),
and a session finishing and leaving the executor.

The golden numbers were captured on the unoptimized simulator core
(after PR 1's engine/session/service bugfixes, before the tentpole
optimization).  If this test fails after touching the executor or
session step, the optimization changed simulation semantics.
"""

from __future__ import annotations

import pytest

from repro.hosts.dtn import DataTransferNode
from repro.hosts.nic import Nic
from repro.network.link import Link
from repro.network.path import Path
from repro.network.queue import DropTailLossModel, NoLossModel
from repro.sim.engine import SimulationEngine
from repro.storage.parallel_fs import throttled_fs
from repro.testbeds.base import Testbed
from repro.transfer.dataset import uniform_dataset
from repro.transfer.executor import FluidTransferNetwork
from repro.transfer.session import TransferParams
from repro.units import Gbps, MB, Mbps, milliseconds


def run_scenario(network_cls: type[FluidTransferNetwork] = FluidTransferNetwork) -> dict:
    """Three site pairs crossing one lossy 1 Gbps backbone, 90 s.

    ``network_cls`` selects the executor; the batch parity test runs
    this same scenario on the per-session reference too and requires
    bit-identical outcomes (see ``tests/integration/test_batch_parity.py``).
    """
    engine = SimulationEngine(dt=0.1)
    network = network_cls(engine)
    backbone = Link(
        "backbone", 1 * Gbps, delay=milliseconds(10), loss_model=DropTailLossModel()
    )
    lossless = NoLossModel()
    sessions = []
    for i, (conc, par) in enumerate([(4, 1), (8, 2), (16, 1)]):
        src = DataTransferNode(
            f"src-{i}",
            storage=throttled_fs(200 * Mbps, 5 * Gbps, f"disk-{i}"),
            nic=Nic(10 * Gbps, name=f"nic-s{i}"),
        )
        dst = DataTransferNode(
            f"dst-{i}",
            storage=throttled_fs(200 * Mbps, 5 * Gbps, f"disk-{i}d"),
            nic=Nic(10 * Gbps, name=f"nic-d{i}"),
        )
        path = Path(
            links=(
                Link(f"edge-s{i}", 10 * Gbps, delay=milliseconds(1), loss_model=lossless),
                backbone,
                Link(f"edge-d{i}", 10 * Gbps, delay=milliseconds(1), loss_model=lossless),
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
            uniform_dataset(90, 50 * MB),
            name=f"s{i}",
            params=TransferParams(concurrency=conc, parallelism=par),
        )
        network.add_session(session)
        sessions.append(session)

    # Mid-run parameter changes exercise topology-cache invalidation:
    # a concurrency step (worker resize) and a parallelism step
    # (per-link stream counts change without a resize).
    engine.schedule_at(20.0, lambda: sessions[0].set_concurrency(12))
    engine.schedule_at(
        35.0, lambda: sessions[1].set_params(sessions[1].params.with_(parallelism=3))
    )
    engine.run_for(90.0)
    return {
        "good_bytes": [s.total_good_bytes for s in sessions],
        "lost_bytes": [s.total_lost_bytes for s in sessions],
        "files": [s.files_completed for s in sessions],
        "concurrency": [s.params.concurrency for s in sessions],
        "finished": [s.finished_at for s in sessions],
    }


#: Captured on the pre-optimization simulator core (seed 865df62 plus
#: the PR 1 bugfixes), full float precision.
GOLDEN = {
    "good_bytes": [2482480248.040148, 4500000000.000005, 4024317058.538565],
    "lost_bytes": [18413634.699552905, 33377997.07409578, 28142544.143572427],
    "files": [44, 90, 80],
    "concurrency": [12, 8, 16],
    "finished": [None, 86.59999999999995, None],
}


class TestGoldenHotpath:
    def test_outcomes_match_unoptimized_core(self):
        result = run_scenario()
        assert result["files"] == GOLDEN["files"]
        assert result["concurrency"] == GOLDEN["concurrency"]
        for key in ("good_bytes", "lost_bytes"):
            assert result[key] == pytest.approx(GOLDEN[key], rel=1e-9), key
        for got, want in zip(result["finished"], GOLDEN["finished"]):
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, rel=1e-9)

    def test_run_twice_bit_identical(self):
        a = run_scenario()
        b = run_scenario()
        assert a == b  # exact, not approx: full determinism
