"""Fluid executor: joint arbitration of all sessions across all resources.

Every fluid step the executor:

1. computes each worker's *demand cap* — the rate it could use if
   nothing were shared: ``min(parallelism x stream cap, per-process read,
   per-process write)`` scaled by CPU efficiency at both hosts;
2. runs a few rounds of **iterative waterfilling** across the shared
   resources (source storage array, destination storage array, both
   NICs, every network link): each resource max-min-allocates using
   demands clamped by what the *other* resources granted last round.
   This converges to a feasible, near max-min joint allocation and —
   crucially for the paper's game dynamics — gives a session bandwidth
   in proportion to its flow count at a saturated bottleneck;
3. computes per-link packet loss from carried load and flow count;
4. lets each session ramp its worker rates toward the allocation and
   move file bytes.

The executor is deliberately the *only* place where sessions interact.

Performance: the resource topology (groupings, member index arrays,
stream/weight vectors, waterfill scratch) depends only on *which*
sessions are attached and their worker counts / parallelism — not on
per-step state — so it is built once and cached in a :class:`_Topology`.
The dirty flag, raised by session add/remove and by ``set_params`` /
worker resizes, is its only invalidation.  The converged equilibrium is
cached next to it under one ``(demand_epoch, link_epoch)`` key.  See
DESIGN.md "Performance".
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from repro.config import DEFAULT_CONFIG, SimConfig
from repro.network.link import Link
from repro.obs.events import FluidRebalance, SessionStart, TopologyRebuild
from repro.obs.tracer import current_tracer
from repro.sim.batch import BatchStore
from repro.sim.engine import SimulationEngine
from repro.sim.fairshare import weighted_max_min_fair_share
from repro.transfer.session import TransferSession

#: Rounds of iterative waterfilling per step.  Two suffice for a single
#: binding resource; three handle redistribution across two bottlenecks.
_WATERFILL_ROUNDS = 3


@dataclass
class _Resource:
    """One shared resource and the workers it serves."""

    name: str
    members: np.ndarray  # global worker indices
    allocate: Callable[[np.ndarray], np.ndarray]
    # For links only: per-member stream counts (parallelism), else None.
    streams: np.ndarray | None = None
    link: Link | None = None
    # -- cached arbitration scaffolding (filled by _build_topology) --------
    #: ``members`` as a column vector, for 2-D fancy indexing.
    members_col: np.ndarray | None = None
    #: (m, k) indices of the *other* resources serving each member,
    #: padded with the always-inf sentinel column of the grants matrix.
    other_rows: np.ndarray | None = None
    #: Links only: total stream count and the worst member-path RTT.
    n_flows: int = 0
    link_rtt: float = 0.0


@dataclass
class _Topology:
    """Cached per-step arbitration state for a fixed session set."""

    sessions: list[TransferSession]
    offsets: np.ndarray
    total: int
    resources: list[_Resource]
    #: Per-worker demand cap assuming the worker holds a file.
    caps_full: np.ndarray
    #: Scratch: grants[w, r] = resource r's last allocation to worker w.
    #: The extra final column stays +inf forever (padding sentinel).
    grants: np.ndarray
    #: The link-typed entries of ``resources`` (loss is computed per link).
    link_resources: list[_Resource]
    #: (n_sessions, max_path_links) rows into the per-step link-loss
    #: vector; padded with the vector's trailing zero-loss sentinel.
    session_link_rows: np.ndarray
    #: Batched state store: sessions hold views into it.
    batch: BatchStore
    #: Equilibrium cache: the ``(demand_epoch, link_epoch)`` pair the
    #: vectors below were computed at.  While the executor's live pair
    #: still equals it, nothing that feeds the allocation has changed
    #: and the step replays them as they are.
    key: tuple | None = None
    demand_cap: np.ndarray | None = None
    final: np.ndarray | None = None
    losses: np.ndarray | None = None
    #: ``batch.goodput_of(losses)``: per-session and per-worker goodput
    #: factors, derived from ``losses`` and cached with it.
    goodput: np.ndarray | None = None
    gf_w: np.ndarray | None = None


class FluidTransferNetwork:
    """Holds the active sessions and arbitrates them each fluid step.

    All sessions advance through the contiguous
    :class:`~repro.sim.batch.BatchStore` in one vectorized pass.  The
    per-session advance it replaces lives on only as the parity
    reference under ``tests/``.

    Incremental equilibrium: the converged (allocation, losses) pair is
    a pure function of the demand-cap vector, the topology, and the
    links' fault state.  Two counters — a *demand epoch* bumped by the
    session hooks whenever a worker gains/loses a file, and a *link
    epoch* bumped by the fault injector on loss-state changes — key the
    cached pair (``_Topology.key``); topology rebuilds discard it
    wholesale.  Steady-state steps skip the waterfill pipeline
    entirely.  Callers that mutate link fault state directly (outside
    the injector) must call :meth:`note_link_fault`, exactly as
    capacity mutators must call :meth:`invalidate_topology`.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        config: SimConfig = DEFAULT_CONFIG,
    ):
        self.engine = engine
        self.config = config
        self.sessions: list[TransferSession] = []
        self._topo: _Topology | None = None
        self._dirty = True
        # Equilibrium epochs: bumped by the demand/fault hooks; the
        # cached allocation is valid while the pair is unchanged.
        self._demand_epoch = 0
        self._link_epoch = 0
        engine.fluid_step = self.fluid_step

    # -- session management ----------------------------------------------------

    def add_session(self, session: TransferSession) -> None:
        """Attach a session; it starts transferring on the next step."""
        if session in self.sessions:
            raise ValueError(f"session {session.name!r} already added")
        session.started_at = self.engine.now
        session.assign_files()
        session.on_topology_change = self.invalidate_topology
        session.on_demand_change = self.note_demand_change
        self.sessions.append(session)
        self._dirty = True
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit(
                SessionStart,
                session=session.name,
                concurrency=session.params.concurrency,
                parallelism=session.params.parallelism,
            )
            tracer.metrics.inc("sessions.started")

    def remove_session(self, session: TransferSession) -> None:
        """Detach a session (finished or cancelled)."""
        self.sessions.remove(session)
        session.on_topology_change = None
        session.on_demand_change = None
        topo = self._topo
        if topo is not None and session in topo.sessions:
            # Freeze the departing session's state into standalone copies
            # so it stops aliasing the store (which the next step rebuilds).
            topo.batch.detach(session)
        self._dirty = True

    def invalidate_topology(self) -> None:
        """Force a topology rebuild on the next fluid step.

        Called automatically when sessions are added/removed or change
        their parameters; public so exotic callers that mutate shared
        resources in place can request a rebuild explicitly.
        """
        self._dirty = True

    def note_demand_change(self) -> None:
        """A worker gained or lost a file: the demand-cap vector moved.

        Installed as every attached session's ``on_demand_change`` hook;
        invalidates the epoch-keyed equilibrium cache without forcing a
        topology rebuild, and drops the store's idle flags (a worker
        that lost a file may sit in a session they call busy).
        """
        self._demand_epoch += 1
        if self._topo is not None:
            self._topo.batch.idle = None

    def note_link_fault(self) -> None:
        """A link's fault state (``available``/``extra_loss``) changed.

        Called by the fault injector on loss bursts, which mutate links
        without touching capacities (outages and brownouts go through
        :meth:`invalidate_topology` instead).  Public for exotic callers
        that flip link fault state directly.
        """
        self._link_epoch += 1

    def active_sessions(self) -> list[TransferSession]:
        """Sessions that still have work."""
        return [s for s in self.sessions if s.active]

    # -- the fluid step ----------------------------------------------------------

    def fluid_step(self, now: float, dt: float) -> None:
        """Advance all sessions by ``dt`` (engine callback)."""
        topo = self._topology()
        if topo is None:
            return
        self._assign_idle(topo)
        final, losses = self._equilibrium(topo)
        self._emit_rebalance(topo)

        # Wall-clock reads are profiling-only: they feed the optional
        # PerfCounters report and never influence sim state.
        prof = self.engine.profile
        t0 = perf_counter() if prof is not None else 0.0  # repro: lint-ok[F001]
        topo.batch.step(dt, final, losses, now, topo.goodput, topo.gf_w)
        self._retire(topo)
        if prof is not None:
            prof.add("session_step", perf_counter() - t0)  # repro: lint-ok[F001]

    def _assign_idle(self, topo: _Topology) -> None:
        """Start-of-step file assignment for sessions with an idle worker.

        Reuses the store's idle flags from the last step's end unless a
        demand change dropped them.  A queue with nothing to pop would
        make ``assign_files`` a no-op, so it is skipped.
        """
        batch = topo.batch
        idle = batch.idle if batch.idle is not None else batch.scan_idle()
        for s, has_idle in zip(topo.sessions, idle):
            if has_idle and s.queue.poppable:
                s.assign_files()

    def _equilibrium(self, topo: _Topology) -> tuple[np.ndarray, np.ndarray]:
        """The converged ``(final, losses)`` pair, from the epoch cache if fresh.

        Each subsystem is timed over exactly its own call, so the
        profiler's attributions are exclusive and sum to less than the
        wall time.
        """
        prof = self.engine.profile
        key = (self._demand_epoch, self._link_epoch)
        t0 = perf_counter() if prof is not None else 0.0  # repro: lint-ok[F001]
        if topo.key == key:
            if prof is not None:
                prof.add("equilibrium_cache", perf_counter() - t0)  # repro: lint-ok[F001]
        else:
            # Workers holding a file keep their allocation warm even in
            # a short inter-file gap (data-channel caching); workers with
            # no file left demand nothing.
            topo.demand_cap = np.where(topo.batch.has_file, topo.caps_full, 0.0)
            t1 = perf_counter()  # repro: lint-ok[F001]
            topo.final = self._waterfill(topo.demand_cap, topo)
            t2 = perf_counter()  # repro: lint-ok[F001]
            topo.losses = self._session_losses(topo, topo.final)
            topo.goodput, topo.gf_w = topo.batch.goodput_of(topo.losses)
            topo.key = key
            if prof is not None:
                t3 = perf_counter()  # repro: lint-ok[F001]
                prof.add("demand_caps", t1 - t0)
                prof.add("waterfill", t2 - t1)
                prof.add("loss", t3 - t2)
        assert topo.final is not None and topo.losses is not None
        return topo.final, topo.losses

    def _emit_rebalance(self, topo: _Topology) -> None:
        """Trace the allocation a step runs on (when tracing).

        Stamped with the step's start time (the engine sets
        ``tracer.now`` before invoking the fluid callback).
        """
        tracer = current_tracer()
        if tracer is None:
            return
        assert topo.demand_cap is not None and topo.final is not None
        tracer.emit(
            FluidRebalance,
            sessions=len(topo.sessions),
            workers=topo.total,
            demand_bps=float(topo.demand_cap.sum()),
            allocated_bps=float(topo.final.sum()),
        )
        tracer.metrics.set("fluid.active_sessions", len(topo.sessions))

    def _retire(self, topo: _Topology) -> None:
        """Detach the sessions that finished during the step."""
        for s in topo.sessions:
            if not s.active and s in self.sessions:
                self.remove_session(s)

    # -- topology cache ----------------------------------------------------------

    def _topology(self) -> _Topology | None:
        """The topology to step on (``None``: no active session or worker).

        Rebuilt only when the dirty flag is up.  A clear flag means its
        sessions are exactly the active ones: a finished session is
        removed, which raises the flag, before the next step.
        """
        topo = self._topo
        if not self._dirty and topo is not None:
            return topo if topo.total else None
        sessions = self.active_sessions()
        if not sessions:
            return None
        topo = self._build_topology(sessions)
        self._topo = topo
        self._dirty = False
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit(
                TopologyRebuild,
                sessions=len(sessions),
                workers=topo.total,
                resources=len(topo.resources),
            )
            tracer.metrics.inc("fluid.topology_rebuilds")
        return topo if topo.total else None

    def _build_topology(self, sessions: list[TransferSession]) -> _Topology:
        counts = np.array([s.rates.size for s in sessions])
        offsets = np.concatenate([[0], np.cumsum(counts)])
        total = int(offsets[-1])

        resources = self._build_resources(sessions, offsets)
        n_res = len(resources)

        # Which resources serve each worker (for the other-rows tables).
        # Built as one padded (total, k_max) matrix — per-worker Python
        # loops here cost more than the whole steady-state step at
        # 16k-worker scale, so everything below the count pass is
        # vectorized fancy indexing.
        res_count = np.zeros(total, dtype=np.intp)
        for res in resources:
            res_count[res.members] += 1
        k_max = int(res_count.max()) if total else 0
        worker_res = np.full((total, max(k_max, 1)), n_res, dtype=np.intp)
        fill = np.zeros(total, dtype=np.intp)
        for r, res in enumerate(resources):
            worker_res[res.members, fill[res.members]] = r
            fill[res.members] += 1

        # The worst path RTT through each link (for its loss model).
        link_rtt: dict[int, float] = {}
        for s in sessions:
            for link in s.path:
                key = id(link)
                link_rtt[key] = max(link_rtt.get(key, 0.0), s.path.rtt)

        for r, res in enumerate(resources):
            rows = worker_res[res.members]
            # Mask out this resource's own column; the sentinel column
            # of the grants matrix stays +inf, so padding is harmless
            # (every row keeps at least one sentinel entry).
            res.members_col = res.members[:, None]
            res.other_rows = np.where(rows == r, n_res, rows)
            if res.link is not None:
                res.n_flows = (
                    int(res.streams.sum()) if res.streams is not None else res.members.size
                )
                res.link_rtt = link_rtt.get(id(res.link), 0.0)

        # Loss scaffolding: which resource-list entries are links, and
        # each session's path as rows into the per-step loss vector
        # (padded with the sentinel slot that always holds zero loss).
        link_resources = [res for res in resources if res.link is not None]
        link_slot = {id(res.link): j for j, res in enumerate(link_resources)}
        width = max((len(s.path) for s in sessions), default=0)
        session_link_rows = np.full(
            (len(sessions), max(width, 1)), len(link_resources), dtype=np.intp
        )
        for i, s in enumerate(sessions):
            session_link_rows[i, : len(s.path)] = [link_slot[id(link)] for link in s.path]

        return _Topology(
            sessions=list(sessions),
            offsets=offsets,
            total=total,
            resources=resources,
            caps_full=self._caps_full(sessions, offsets, total),
            grants=np.full((total, n_res + 1), np.inf),
            link_resources=link_resources,
            session_link_rows=session_link_rows,
            batch=BatchStore(sessions, offsets),
        )

    # -- demand caps -----------------------------------------------------------

    def _caps_full(
        self, sessions: list[TransferSession], offsets: np.ndarray, total: int
    ) -> np.ndarray:
        """Per-worker unconstrained rate caps assuming a file in hand (bps)."""
        # Process counts per host: each worker is one process on the
        # source and one on the destination.
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
            per_worker = min(
                s.params.parallelism * s.tcp.stream_cap(s.path.rtt),
                s.source.storage.per_process_read_bps * eff,
                s.destination.storage.per_process_write_bps * eff,
            )
            caps[offsets[i] : offsets[i + 1]] = per_worker
        return caps

    # -- resource construction ----------------------------------------------------

    def _build_resources(
        self, sessions: list[TransferSession], offsets: np.ndarray
    ) -> list[_Resource]:
        resources: list[_Resource] = []

        # Storage arrays (read side grouped by source storage object,
        # write side by destination storage object).
        read_groups: dict[int, list[int]] = {}
        write_groups: dict[int, list[int]] = {}
        read_fs: dict[int, object] = {}
        write_fs: dict[int, object] = {}
        send_nic_groups: dict[int, list[int]] = {}
        recv_nic_groups: dict[int, list[int]] = {}
        nic_of: dict[int, object] = {}
        link_groups: dict[int, list[int]] = {}
        link_streams: dict[int, list[int]] = {}
        link_of: dict[int, Link] = {}

        link_weights: dict[int, list[float]] = {}

        for i, s in enumerate(sessions):
            idx = list(range(offsets[i], offsets[i + 1]))
            key = id(s.source.storage)
            read_groups.setdefault(key, []).extend(idx)
            read_fs[key] = s.source.storage
            key = id(s.destination.storage)
            write_groups.setdefault(key, []).extend(idx)
            write_fs[key] = s.destination.storage
            key = id(s.source.nic)
            send_nic_groups.setdefault(key, []).extend(idx)
            nic_of[key] = s.source.nic
            key = id(s.destination.nic)
            recv_nic_groups.setdefault(key, []).extend(idx)
            nic_of[key] = s.destination.nic
            for link in s.path:
                key = id(link)
                link_groups.setdefault(key, []).extend(idx)
                link_streams.setdefault(key, []).extend([s.params.parallelism] * len(idx))
                link_weights.setdefault(key, []).extend([s.tcp.aggressiveness] * len(idx))
                link_of[key] = link

        for key, idx in read_groups.items():
            fs = read_fs[key]
            resources.append(
                _Resource(f"read:{fs.name}", np.array(idx), fs.allocate_read)
            )
        for key, idx in write_groups.items():
            fs = write_fs[key]
            resources.append(
                _Resource(f"write:{fs.name}", np.array(idx), fs.allocate_write)
            )
        for key, idx in send_nic_groups.items():
            nic = nic_of[key]
            resources.append(_Resource(f"nic-tx:{nic.name}", np.array(idx), nic.allocate))
        for key, idx in recv_nic_groups.items():
            nic = nic_of[key]
            resources.append(_Resource(f"nic-rx:{nic.name}", np.array(idx), nic.allocate))
        for key, idx in link_groups.items():
            link = link_of[key]
            streams = np.array(link_streams[key])
            weights = np.array(link_weights[key])
            resources.append(
                _Resource(
                    f"link:{link.name}",
                    np.array(idx),
                    _flow_allocator(link, streams, weights),
                    streams=streams,
                    link=link,
                )
            )
        return resources

    # -- iterative waterfilling -----------------------------------------------------

    def _waterfill(self, demand_cap: np.ndarray, topo: _Topology) -> np.ndarray:
        """Joint allocation: each round every resource re-allocates with
        demands clamped by the other resources' last grants.

        Gauss-Seidel over the cached resource list: within a round each
        resource sees the grants the earlier resources just wrote.  The
        grants matrix is preallocated scratch; its sentinel last column
        stays +inf so the padded other-rows gather is a plain 2-D fancy
        index with no per-resource ``np.delete`` copies.
        """
        grants = topo.grants
        grants.fill(np.inf)
        resources = topo.resources
        demand_subs = [demand_cap[res.members] for res in resources]
        for _ in range(_WATERFILL_ROUNDS):
            for r, res in enumerate(resources):
                clamp = grants[res.members_col, res.other_rows].min(axis=1)
                demands = np.minimum(demand_subs[r], clamp)
                grants[res.members, r] = res.allocate(demands)
        final = np.minimum(demand_cap, grants[:, : len(resources)].min(axis=1))
        return np.where(np.isfinite(final), final, demand_cap)

    # -- loss -----------------------------------------------------------------------

    def _session_losses(self, topo: _Topology, final: np.ndarray) -> np.ndarray:
        """Per-session path loss: independent loss at each traversed link.

        One loss evaluation per link, then one indexed product over the
        precomputed session-path rows (the sentinel slot stays at zero
        loss, so row padding multiplies by exactly 1.0).
        """
        n_links = len(topo.link_resources)
        loss_vec = np.zeros(n_links + 1)
        for j, res in enumerate(topo.link_resources):
            carried = float(final[res.members].sum())
            # Use the RTT of the longest path through this link — loss is a
            # property of the shared queue, approximated with one RTT.
            loss_vec[j] = res.link.loss_rate(carried, res.n_flows, res.link_rtt)
        survive = np.prod(1.0 - loss_vec[topo.session_link_rows], axis=1)
        return 1.0 - survive


def _flow_allocator(link: Link, streams: np.ndarray, weights: np.ndarray | None = None):
    """Build an allocator that arbitrates at *flow* granularity.

    A worker with parallelism ``p`` presents ``p`` equal flows, so at a
    saturated link a session's share is proportional to its total stream
    count — the mechanism behind both the benefit and the aggression of
    high concurrency/parallelism.

    ``weights`` carries per-worker transport aggressiveness: loss-based
    TCP flows weigh 1.0; a BBR-flavoured transport (the paper's future
    work, modelled as less loss-deferential) claims proportionally more
    of a saturated link.

    The flow expansion scaffolding (reduceat boundaries, expanded
    weights) depends only on ``streams``/``weights``, so it is computed
    once per topology build rather than per step.
    """
    uniform = weights is None or np.all(weights == weights[0] if weights.size else True)
    boundaries = np.concatenate([[0], np.cumsum(streams)[:-1]])
    flow_weights = None if uniform else np.repeat(weights, streams)

    def allocate(demands: np.ndarray) -> np.ndarray:
        flow_demands = np.repeat(demands / streams, streams)
        if uniform:
            flow_alloc = link.allocate(flow_demands)
        else:
            flow_alloc = weighted_max_min_fair_share(
                flow_demands, flow_weights, link.effective_capacity
            )
        # Sum each worker's flows back together.
        return np.add.reduceat(flow_alloc, boundaries) if flow_alloc.size else flow_alloc

    return allocate
