"""Cache-freshness oracle: the executor's caches never serve stale state.

The executor keeps one topology guard (the dirty flag) and one
equilibrium cache (the ``(demand_epoch, link_epoch)`` key).  Both lean
on hooks: session add/remove and parameter changes raise the dirty
flag, and every change to which workers hold a file bumps the demand
epoch.  :class:`CacheCheckedNetwork` rebuilds everything from scratch
before each fluid step and requires exact equality with what the
caches hold whenever they claim to be current; the from-scratch
topology comes from the retired dict-grouping builder, so the check
also holds the executor's array build to it.  It runs here over the
golden scenario, the faulted 8 x 64 competition, and the quick
``open-workload`` flaky-network leg; the canaries show that a missed
demand hook, kept idle flags, swapped resources and an under-counted
link are each caught.
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


def _misbuilt(monkeypatch, damage) -> None:
    """Make every executor's topology build apply ``damage`` to its result."""
    build = FluidTransferNetwork._build_topology

    def damaged(self, sessions):
        topo = build(self, sessions)
        damage(topo)
        return topo

    monkeypatch.setattr(FluidTransferNetwork, "_build_topology", damaged)


def test_canary_swapped_resources_are_caught(checked, monkeypatch):
    # Resource order fixes the waterfill's float order: a build that
    # lists two resources the other way round is a different topology.
    def swap(topo):
        res = topo.resources
        res[0], res[1] = res[1], res[0]

    _misbuilt(monkeypatch, swap)
    cls, _ = checked
    with pytest.raises(AssertionError, match="misbuilt topology.*: resource names"):
        run_golden_scenario(cls)


def test_canary_undercounted_link_flows_are_caught(checked, monkeypatch):
    # One flow too few on a link understates its loss.
    def undercount(topo):
        topo.link_resources[-1].n_flows -= 1

    _misbuilt(monkeypatch, undercount)
    cls, _ = checked
    with pytest.raises(AssertionError, match="misbuilt topology.*n_flows"):
        run_competition(cls)
