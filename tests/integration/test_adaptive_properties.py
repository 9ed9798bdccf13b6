"""Property-based adaptive/fixed agreement under chaos presets.

The parity suite pins two hand-picked scenarios; this one lets
Hypothesis draw the seed so the chaos plan (event mix, timings,
intensities, runtime target picks) varies across examples.  For every
draw, an adaptive run and a fixed-dt run of the same seeded scenario
must agree on the workload-level outcomes ISSUE 9 names: total good
bytes (within rtol), per-session completion counts, and terminal job
states.  ``calm`` keeps faults to stalls and crashes (demand-epoch
churn); ``flaky-network`` adds loss bursts and outages (link-epoch and
topology churn) — between them every cache-invalidation path gets
exercised with adversarial timing.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.faults import ChaosRng, FaultInjector, chaos_plan  # noqa: E402
from repro.sim.engine import SimulationEngine  # noqa: E402
from repro.sim.rng import RngStreams  # noqa: E402
from repro.testbeds.presets import emulab  # noqa: E402
from repro.transfer.dataset import uniform_dataset  # noqa: E402
from repro.transfer.executor import FluidTransferNetwork  # noqa: E402
from repro.transfer.session import TransferParams  # noqa: E402
from repro.units import MB  # noqa: E402

DT = 0.1
HORIZON = 120.0
RTOL = 1e-6


def run_chaos(seed: int, preset: str, adaptive: bool) -> list:
    """Three finite emulab transfers under a seeded chaos plan.

    Finite datasets (``repeat=False``) let sessions actually reach a
    terminal state inside the horizon, so the test can compare
    completion outcomes and not just byte counters.
    """
    engine = SimulationEngine(dt=DT)
    network = FluidTransferNetwork(engine, adaptive=adaptive)
    sessions = []
    for i in range(3):
        session = emulab().new_session(
            uniform_dataset(12, 20 * MB),
            name=f"s{i}",
            params=TransferParams(concurrency=4, parallelism=2),
        )
        network.add_session(session)
        sessions.append(session)
    streams = RngStreams(seed)
    plan = chaos_plan(preset, horizon=0.7 * HORIZON, rng=ChaosRng(streams))
    FaultInjector(engine, network, plan, streams=streams).arm()
    engine.run_for(HORIZON)
    return sessions


@pytest.mark.parametrize("preset", ["calm", "flaky-network"])
class TestAdaptiveChaosAgreement:
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_outcomes_match_fixed_dt(self, preset, seed):
        adaptive = run_chaos(seed, preset, adaptive=True)
        fixed = run_chaos(seed, preset, adaptive=False)
        for a, f in zip(adaptive, fixed):
            assert a.total_good_bytes == pytest.approx(
                f.total_good_bytes, rel=RTOL, abs=1.0
            )
            assert a.files_completed == f.files_completed
            assert a.worker_crashes == f.worker_crashes
            # Terminal state: finished-ness must agree exactly; the
            # completion timestamp may shift by at most one grid step
            # when round-off moves a file's last byte across a step
            # boundary.
            assert (a.finished_at is None) == (f.finished_at is None)
            if a.finished_at is not None:
                assert abs(a.finished_at - f.finished_at) <= DT + 1e-9
