"""Test-only references for the fluid executor.

The executor advances every session through one
:class:`~repro.sim.batch.BatchStore` pass and caches its topology and
equilibrium.  This module keeps the two oracles that production code no
longer carries:

* :func:`session_step` and :class:`PerSessionNetwork` — the original
  per-session advance, which each session runs on its own arrays.  The
  batched store must reproduce it bit for bit
  (``tests/integration/test_batch_parity.py``).
* :func:`reference_topology` — the dict-grouping topology builder the
  executor's array build replaced: one Python pass per session and per
  worker, with each link's allocator state computed on its own.  The
  executor's build must equal it exactly
  (``tests/transfer/test_topology_build.py``).
* :class:`CacheCheckedNetwork` — the production executor plus a
  cache-freshness check on every fluid step: a from-scratch reference
  topology and equilibrium must equal the cached ones whenever the
  cache claims to be current.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.network.link import Link
from repro.sim.batch import BatchStore
from repro.transfer.executor import FluidTransferNetwork, _allocate_flows, _Resource, _Topology
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
    scratch the shared equilibrium code reads its demand from.
    """

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
        topo = self._topology()
        if topo is None:
            return
        offsets = topo.offsets
        for i, s in enumerate(topo.sessions):
            topo.batch.has_file[offsets[i] : offsets[i + 1]] = s.has_file
        final, losses = self._equilibrium(topo)
        for i, s in enumerate(sessions):
            session_step(s, dt, final[offsets[i] : offsets[i + 1]], float(losses[i]), now)
            if not s.active and s in self.sessions:
                self.remove_session(s)


def reference_topology(sessions: list[TransferSession]) -> _Topology:
    """The executor's topology for ``sessions``, built the pre-CSR way.

    Resources are grouped in dicts keyed by object identity, in
    first-appearance order per kind; each worker's resource row is
    filled resource by resource; link RTTs re-sum each path's link
    delays (``Path.rtt``), not the session's cached value; each link's
    flow boundaries and weights are computed on their own.  Builds and
    adopts a fresh :class:`BatchStore`, exactly as the executor does.
    """
    counts = np.array([s.rates.size for s in sessions])
    offsets = np.concatenate([[0], np.cumsum(counts)])
    total = int(offsets[-1])

    resources = _reference_resources(sessions, offsets)
    n_res = len(resources)

    res_count = np.zeros(total, dtype=np.intp)
    for res in resources:
        res_count[res.members] += 1
    k_max = int(res_count.max()) if total else 0
    worker_res = np.full((total, max(k_max, 1)), n_res, dtype=np.intp)
    fill = np.zeros(total, dtype=np.intp)
    for r, res in enumerate(resources):
        worker_res[res.members, fill[res.members]] = r
        fill[res.members] += 1

    link_rtt: dict[int, float] = {}
    for s in sessions:
        for link in s.path:
            key = id(link)
            link_rtt[key] = max(link_rtt.get(key, 0.0), s.path.rtt)

    for r, res in enumerate(resources):
        rows = worker_res[res.members]
        res.members_col = res.members[:, None]
        res.other_rows = np.where(rows == r, n_res, rows)
        if res.link is not None:
            res.n_flows = int(res.allocate.args[1].sum())
            res.link_rtt = link_rtt.get(id(res.link), 0.0)

    link_resources = [res for res in resources if res.link is not None]
    link_slot = {id(res.link): j for j, res in enumerate(link_resources)}
    width = max((len(s.path) for s in sessions), default=0)
    session_link_rows = np.full((len(sessions), max(width, 1)), len(link_resources), dtype=np.intp)
    for i, s in enumerate(sessions):
        session_link_rows[i, : len(s.path)] = [link_slot[id(link)] for link in s.path]

    return _Topology(
        sessions=list(sessions),
        offsets=offsets,
        total=total,
        resources=resources,
        caps_full=_reference_caps_full(sessions, offsets, total),
        grants=np.full((total, n_res + 1), np.inf),
        link_resources=link_resources,
        session_link_rows=session_link_rows,
        batch=BatchStore(sessions, offsets),
    )


def _reference_caps_full(
    sessions: list[TransferSession], offsets: np.ndarray, total: int
) -> np.ndarray:
    procs: dict[int, int] = {}
    for s in sessions:
        for host in (s.source, s.destination):
            procs[id(host)] = procs.get(id(host), 0) + s.rates.size
    caps = np.zeros(total)
    for i, s in enumerate(sessions):
        eff = min(
            s.source.cpu.efficiency(procs[id(s.source)]),
            s.destination.cpu.efficiency(procs[id(s.destination)]),
        )
        caps[offsets[i] : offsets[i + 1]] = min(
            s.params.parallelism * s.tcp.stream_cap(s.path.rtt),
            s.source.storage.per_process_read_bps * eff,
            s.destination.storage.per_process_write_bps * eff,
        )
    return caps


def _reference_resources(
    sessions: list[TransferSession], offsets: np.ndarray
) -> list[_Resource]:
    """Resources grouped per kind; :func:`reference_topology` fills in
    ``other_rows`` (empty here), ``n_flows`` and ``link_rtt``."""
    read_groups: dict[int, list[int]] = {}
    write_groups: dict[int, list[int]] = {}
    send_nic_groups: dict[int, list[int]] = {}
    recv_nic_groups: dict[int, list[int]] = {}
    obj_of: dict[int, object] = {}
    link_groups: dict[int, list[int]] = {}
    link_streams: dict[int, list[int]] = {}
    link_weights: dict[int, list[float]] = {}
    link_of: dict[int, Link] = {}

    for i, s in enumerate(sessions):
        idx = list(range(offsets[i], offsets[i + 1]))
        for groups, obj in (
            (read_groups, s.source.storage),
            (write_groups, s.destination.storage),
            (send_nic_groups, s.source.nic),
            (recv_nic_groups, s.destination.nic),
        ):
            groups.setdefault(id(obj), []).extend(idx)
            obj_of[id(obj)] = obj
        for link in s.path:
            key = id(link)
            link_groups.setdefault(key, []).extend(idx)
            link_streams.setdefault(key, []).extend([s.params.parallelism] * len(idx))
            link_weights.setdefault(key, []).extend([s.tcp.aggressiveness] * len(idx))
            link_of[key] = link

    resources = []
    for prefix, groups, allocator in (
        ("read", read_groups, "allocate_read"),
        ("write", write_groups, "allocate_write"),
        ("nic-tx", send_nic_groups, "allocate"),
        ("nic-rx", recv_nic_groups, "allocate"),
    ):
        for key, idx in groups.items():
            obj = obj_of[key]
            members = np.array(idx)
            resources.append(
                _Resource(
                    f"{prefix}:{obj.name}",
                    members,
                    members[:, None],
                    np.empty((0, 0)),
                    getattr(obj, allocator),
                )
            )
    for key, idx in link_groups.items():
        link = link_of[key]
        streams = np.array(link_streams[key])
        weights = np.array(link_weights[key])
        members = np.array(idx)
        uniform = bool(np.all(weights == weights[0]))
        resources.append(
            _Resource(
                f"link:{link.name}",
                members,
                members[:, None],
                np.empty((0, 0)),
                partial(
                    _allocate_flows,
                    link,
                    streams,
                    np.concatenate([[0], np.cumsum(streams)[:-1]]),
                    None if uniform else np.repeat(weights, streams),
                ),
                link=link,
            )
        )
    return resources


def assert_same_topology(want: _Topology, got: _Topology, msg: str) -> None:
    """Exact equality of every field a fluid step reads from a topology.

    Arrays compare by dtype, shape and value; a storage or NIC
    allocator by identity of the object it allocates for, a link's by
    its bound link, streams, flow boundaries and flow weights.  The
    assertion names the first field that differs.
    """

    def same(field: str, a, b) -> None:
        assert a == b, f"{msg}: {field}"

    def arr(a):
        return None if a is None else (a.dtype.str, a.shape, a.tolist())

    same("sessions", [id(s) for s in want.sessions], [id(s) for s in got.sessions])
    same("offsets", want.offsets.tolist(), got.offsets.tolist())
    same("total", want.total, got.total)
    same("caps_full", arr(want.caps_full), arr(got.caps_full))
    # The grants matrix is waterfill scratch: only its shape is fixed.
    same("grants", want.grants.shape, got.grants.shape)
    same("resource names", [r.name for r in want.resources], [r.name for r in got.resources])
    for w, g in zip(want.resources, got.resources):
        for field in ("members", "members_col", "other_rows"):
            same(f"{w.name} {field}", arr(getattr(w, field)), arr(getattr(g, field)))
        same(f"{w.name} n_flows", (type(w.n_flows), w.n_flows), (type(g.n_flows), g.n_flows))
        same(f"{w.name} link_rtt", w.link_rtt, g.link_rtt)
        same(f"{w.name} link", id(w.link), id(g.link))
        if w.link is None:
            same(f"{w.name} allocator", w.allocate, g.allocate)
            continue
        same(f"{w.name} allocator", w.allocate.func, g.allocate.func)
        same(f"{w.name} allocator link", id(w.allocate.args[0]), id(g.allocate.args[0]))
        fields = ("streams", "boundaries", "flow_weights")
        for field, a, b in zip(fields, w.allocate.args[1:], g.allocate.args[1:]):
            same(f"{w.name} {field}", arr(a), arr(b))
    same("link resources", [r.name for r in want.link_resources], [r.name for r in got.link_resources])
    same(
        "link resources",
        [id(r) for r in got.resources if r.link is not None],
        [id(r) for r in got.link_resources],
    )
    same("session_link_rows", arr(want.session_link_rows), arr(got.session_link_rows))


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
    :func:`reference_topology` builds from scratch, field by field (see
    :func:`assert_same_topology`), so a stale cache and a misbuilt one
    both fail; while the epoch pair also matches the cache
    key, every cached per-equilibrium vector must equal one recomputed
    from scratch.  Both comparisons are exact.  The store's idle flags,
    when kept, must flag every session that has a worker without a
    file.  ``topology_checks``, ``equilibrium_checks`` and
    ``idle_checks`` count the checks made, so a test can tell the
    oracle actually ran.
    """

    topology_checks = 0
    equilibrium_checks = 0
    idle_checks = 0

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
        fresh = reference_topology(sessions)
        _reattach(cached.batch)
        assert_same_topology(fresh, cached, "stale or misbuilt topology behind a clear dirty flag")
        self.topology_checks += 1
        idle = cached.batch.idle
        if idle is not None:
            for flagged, s in zip(idle, cached.sessions):
                assert flagged or s.has_file.all(), "idle worker in a session flagged busy"
            self.idle_checks += 1
        if cached.key != (self._demand_epoch, self._link_epoch):
            return
        self._equilibrium(fresh)
        stale = "stale equilibrium behind a matching epoch key"
        for name in ("demand_cap", "final", "losses", "goodput", "gf_w"):
            want, got = getattr(fresh, name), getattr(cached, name)
            assert got is not None and got.tolist() == want.tolist(), f"{stale}: {name}"
        self.equilibrium_checks += 1
