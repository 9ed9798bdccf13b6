"""Test-only references for the fluid executor.

The executor advances every session through one
:class:`~repro.sim.batch.BatchStore` pass and caches its topology and
equilibrium.  This module keeps the two oracles that production code no
longer carries:

* :func:`session_step` and :class:`PerSessionNetwork` — the original
  per-session advance, which each session runs on its own arrays.  The
  batched store must reproduce it bit for bit
  (``tests/integration/test_batch_parity.py``).
* :class:`CacheCheckedNetwork` — the production executor plus a
  cache-freshness check on every fluid step: a from-scratch topology
  and equilibrium must equal the cached ones whenever the cache claims
  to be current.
"""

from __future__ import annotations

import numpy as np

from repro.sim.batch import BatchStore
from repro.sim.engine import SimulationEngine
from repro.transfer.executor import FluidTransferNetwork, _Topology
from repro.transfer.session import TransferSession


def session_step(
    session: TransferSession, dt: float, targets: np.ndarray, loss: float, now: float
) -> None:
    """Advance one session's worker state by ``dt`` on its own arrays.

    Parameters
    ----------
    targets:
        Per-worker allocated equilibrium rates from the executor.
    loss:
        Packet-loss fraction on this session's path this step.
    now:
        Simulation time at the *start* of the step.
    """
    s = session
    s.current_loss = loss
    s.rates[:] = s.tcp.advance_rates(s.rates, targets, s.path_rtt, dt)

    # Consume injected stalls first (hung workers move nothing), then
    # gaps; remaining time per worker is what's left of dt.  The stall
    # branch is skipped entirely when no stall is outstanding.
    if s.stall_left.any():
        stall_used = np.minimum(s.stall_left, dt)
        s.stall_left -= stall_used
        s.stalled_seconds += float(stall_used.sum())
        budget = dt - stall_used
        time_left = np.maximum(0.0, budget - s.gap_left)
        s.gap_left[:] = np.maximum(0.0, s.gap_left - budget)
    else:
        time_left = np.maximum(0.0, dt - s.gap_left)
        s.gap_left[:] = np.maximum(0.0, s.gap_left - dt)

    goodput_factor = 1.0 - loss
    good_rate_Bps = s.rates * goodput_factor / 8.0

    good_total = 0.0
    # Workers that will actually move bytes this step (same guards the
    # per-worker advance applies individually).
    moving = np.flatnonzero(s.has_file & (time_left > 1e-12) & (good_rate_Bps > 1e-9))
    if moving.size:
        need = s.file_size[moving] - s.file_done[moving]
        finishes = (need / good_rate_Bps[moving]) <= time_left[moving]
        # Streaming workers advance in one vectorized update; only
        # workers whose file finishes fall back to the per-worker cascade.
        streaming = moving[~finishes]
        moved = good_rate_Bps[streaming] * time_left[streaming]
        s.file_done[streaming] += moved
        good_total = float(moved.sum())
        if finishes.any():
            for w in moving[finishes].tolist():
                good, _ = s._advance_worker(w, time_left[w], good_rate_Bps[w], goodput_factor)
                good_total += good
    sent_total = good_total / goodput_factor if goodput_factor > 0 else good_total
    s._finish_step(good_total, sent_total, dt, now)


class PerSessionNetwork(FluidTransferNetwork):
    """The executor with the per-session advance instead of the store.

    Every topology build detaches each session from the new store, so
    sessions keep standalone arrays and :func:`session_step` advances
    them one at a time.  The store's ``has_file`` mask is the gather
    scratch the shared equilibrium code reads its demand from.  Always
    fixed-dt: a jump would advance a store the sessions no longer
    alias, so the engine's jump hooks are cleared and an adaptive
    engine takes every grid step through :meth:`fluid_step`.
    """

    def __init__(self, engine: SimulationEngine, *args, **kwargs) -> None:
        super().__init__(engine, *args, **kwargs)
        engine.jump_planner = None
        engine.fluid_jump = None

    def _build_topology(self, sessions: list[TransferSession]) -> _Topology:
        topo = super()._build_topology(sessions)
        for s in sessions:
            topo.batch.detach(s)
        return topo

    def fluid_step(self, now: float, dt: float) -> None:
        sessions = self.active_sessions()
        if not sessions:
            return
        for s in sessions:
            s.assign_files()
        topo = self._topology(sessions)
        if topo.total == 0:
            return
        offsets = topo.offsets
        for i, s in enumerate(topo.sessions):
            topo.batch.has_file[offsets[i] : offsets[i + 1]] = s.has_file
        final, losses = self._equilibrium(topo)
        for i, s in enumerate(sessions):
            session_step(s, dt, final[offsets[i] : offsets[i + 1]], float(losses[i]), now)
            if not s.active and s in self.sessions:
                self.remove_session(s)


def _reattach(batch: BatchStore) -> None:
    """Point every session of ``batch`` back at its views into the store."""
    for i, s in enumerate(batch.sessions):
        lo, hi = batch.offsets[i], batch.offsets[i + 1]
        s.adopt_state(
            batch.rates[lo:hi],
            batch.file_size[lo:hi],
            batch.file_done[lo:hi],
            batch.gap_left[lo:hi],
            batch.stall_left[lo:hi],
            batch.attempts[lo:hi],
            batch.has_file[lo:hi],
        )


class CacheCheckedNetwork(FluidTransferNetwork):
    """The production executor, checking its caches before every step.

    While the dirty flag is clear the cached topology must equal one
    rebuilt from scratch; while the epoch pair also matches the cache
    key, the cached equilibrium must equal one recomputed from scratch.
    Both comparisons are exact.  ``topology_checks`` and
    ``equilibrium_checks`` count the comparisons made, so a test can
    tell the oracle actually ran.
    """

    topology_checks = 0
    equilibrium_checks = 0

    def fluid_step(self, now: float, dt: float) -> None:
        self.check_caches()
        super().fluid_step(now, dt)

    def check_caches(self) -> None:
        cached = self._topo
        sessions = self.active_sessions()
        if self._dirty or cached is None or not sessions:
            return
        # The rebuild's store adopts every session; hand them back to
        # the live store right away.
        fresh = self._build_topology(sessions)
        _reattach(cached.batch)
        stale = "stale topology behind a clear dirty flag"
        assert [id(s) for s in fresh.sessions] == [id(s) for s in cached.sessions], stale
        assert fresh.offsets.tolist() == cached.offsets.tolist(), stale
        assert fresh.caps_full.tolist() == cached.caps_full.tolist(), stale
        self.topology_checks += 1
        if cached.key != (self._demand_epoch, self._link_epoch):
            return
        assert cached.final is not None and cached.losses is not None
        final, losses = self._equilibrium(fresh)
        stale = "stale equilibrium behind a matching epoch key"
        assert final.tolist() == cached.final.tolist(), stale
        assert losses.tolist() == cached.losses.tolist(), stale
        self.equilibrium_checks += 1
