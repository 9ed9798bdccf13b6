"""Cache-freshness oracle: the executor's caches never serve stale state.

The executor keeps one topology guard (the dirty flag) and one
equilibrium cache (the ``(demand_epoch, link_epoch)`` key).  Both lean
on hooks: session add/remove and parameter changes raise the dirty
flag, and every change to which workers hold a file bumps the demand
epoch.  :class:`CacheCheckedNetwork` rebuilds everything from scratch
before each fluid step and requires exact equality with what the
caches hold whenever they claim to be current.  It runs here over the
golden scenario, the faulted 8 x 64 competition, and the quick
``open-workload`` flaky-network leg; the canary shows a missed demand
hook is caught.
"""

from __future__ import annotations

import pytest

from repro.experiments import common
from repro.experiments.open_workload import workload_run
from repro.runner.suite import QUICK_PROFILE
from repro.service import sharding
from repro.transfer.executor import FluidTransferNetwork
from repro.transfer.session import TransferSession

from tests.integration.per_session import CacheCheckedNetwork
from tests.integration.test_batch_parity import run_competition
from tests.integration.test_golden_hotpath import run_scenario as run_golden_scenario


@pytest.fixture
def checked(monkeypatch):
    """Record every checked network the scenarios build."""
    built: list[CacheCheckedNetwork] = []

    class Recorded(CacheCheckedNetwork):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    # Experiment legs build their network in make_context; sharded
    # planes build one per shard in make_shards.
    monkeypatch.setattr(common, "FluidTransferNetwork", Recorded)
    monkeypatch.setattr(sharding, "FluidTransferNetwork", Recorded)
    return Recorded, built


def assert_oracle_ran(built: list[CacheCheckedNetwork]) -> None:
    assert built
    assert sum(n.topology_checks for n in built) > 0
    assert sum(n.equilibrium_checks for n in built) > 0
    assert sum(n.idle_checks for n in built) > 0


class TestCacheFreshness:
    def test_golden_scenario(self, checked):
        cls, built = checked
        run_golden_scenario(cls)
        assert_oracle_ran(built)

    def test_faulted_competition(self, checked):
        cls, built = checked
        run_competition(cls)
        assert_oracle_ran(built)

    def test_open_workload_flaky_network_leg(self, checked):
        _, built = checked
        profile = QUICK_PROFILE["open-workload"]
        run = workload_run(
            leg="flaky-network",
            seed=0,
            horizon=profile["horizon"],
            rate_per_hour=profile["rate_per_hour"],
            rho=1.0,
            preset="flaky-network",
            max_active=8,
        )
        assert run.preset == "flaky-network"
        assert_oracle_ran(built)


def test_canary_missed_demand_hook_is_caught(checked, monkeypatch):
    # A session that stops reporting file gains and losses leaves the
    # epoch key unchanged while the demand-cap vector moves.
    monkeypatch.setattr(TransferSession, "_notify_demand_change", lambda self: None)
    cls, _ = checked
    with pytest.raises(AssertionError, match="stale equilibrium"):
        run_golden_scenario(cls)


def test_canary_kept_idle_flags_are_caught(checked, monkeypatch):
    # An executor that keeps the store's idle flags across a demand
    # change misses the worker a crash leaves without a file: its
    # session stays flagged busy and gets no start-of-step assignment.
    def bump_epoch_only(self):
        self._demand_epoch += 1

    monkeypatch.setattr(FluidTransferNetwork, "note_demand_change", bump_epoch_only)
    cls, _ = checked
    with pytest.raises(AssertionError, match="idle worker in a session flagged busy"):
        run_competition(cls)
