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
worker resizes, is its only invalidation.  Under session churn it is
rebuilt thousands of times per run on a few sessions each, so the build
costs a fixed number of numpy calls: one stable argsort lays every
(resource, worker) membership out as one CSR array that each resource
slices.  The converged equilibrium is cached next to it under one
``(demand_epoch, link_epoch)`` key.  See DESIGN.md "Performance".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
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
    #: Global worker indices, ascending; and the same as a column
    #: vector, for 2-D fancy indexing.
    members: np.ndarray
    members_col: np.ndarray
    #: (m, k) indices of the *other* resources serving each member,
    #: padded with the always-inf sentinel column of the grants matrix.
    other_rows: np.ndarray
    #: This resource's grants for the members' demands: the storage or
    #: NIC's max-min allocator, or :func:`_allocate_flows` bound to a link.
    allocate: Callable[[np.ndarray], np.ndarray]
    #: Links only: the loss model's inputs (total stream count and the
    #: worst member-path RTT).
    link: Link | None = None
    n_flows: int = 0
    link_rtt: float = 0.0


def _allocate_flows(
    link: Link,
    streams: np.ndarray,
    boundaries: np.ndarray,
    flow_weights: np.ndarray | None,
    demands: np.ndarray,
) -> np.ndarray:
    """A link's grants for its members' ``demands``.

    A link arbitrates at *flow* granularity: a worker with parallelism
    ``p`` (its entry of ``streams``) presents ``p`` equal flows, so at a
    saturated link a session's share is proportional to its total
    stream count — the mechanism behind both the benefit and the
    aggression of high concurrency/parallelism.  Per-flow weights carry
    transport aggressiveness: loss-based TCP flows weigh 1.0; a
    BBR-flavoured transport (the paper's future work, modelled as less
    loss-deferential) claims proportionally more of a saturated link;
    ``None`` means all flows weigh the same.  ``boundaries`` holds each
    member's first flow in the expansion.
    """
    flow_demands = np.repeat(demands / streams, streams)
    if flow_weights is None:
        flow_alloc = link.allocate(flow_demands)
    else:
        flow_alloc = weighted_max_min_fair_share(flow_demands, flow_weights, link.effective_capacity)
    # Sum each worker's flows back together.
    return np.add.reduceat(flow_alloc, boundaries)


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

        A recompute is traced as one ``fluid.rebalance``.

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
            self._emit_rebalance(topo)
        assert topo.final is not None and topo.losses is not None
        return topo.final, topo.losses

    def _emit_rebalance(self, topo: _Topology) -> None:
        """Trace a freshly recomputed equilibrium (when tracing).

        Called only from :meth:`_equilibrium`'s recompute branch, which
        every topology rebuild reaches (a new topology has no key), so
        steps on a cached allocation emit nothing.  Stamped with the
        step's start time (the engine sets ``tracer.now`` before
        invoking the fluid callback).
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
        prof = self.engine.profile
        t0 = perf_counter() if prof is not None else 0.0  # repro: lint-ok[F001]
        topo = self._build_topology(sessions)
        if prof is not None:
            prof.add("topology", perf_counter() - t0)  # repro: lint-ok[F001]
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
        return topo if topo.total else None

    def _build_topology(self, sessions: list[TransferSession]) -> _Topology:
        """Build the topology in a fixed number of numpy calls.

        Nothing loops per worker, and the Python loops that run per
        session or per resource only read attributes and slice arrays.
        :func:`_number_resources` numbers the resources and
        :func:`_memberships` lays every (resource, worker) membership
        out as one CSR array, whose per-resource slices are each
        resource's ``members`` and ``other_rows``.  Links come last in
        the numbering, so the CSR tail holds every link's memberships
        and one ``reduceat`` per quantity covers all links.
        """
        counts = [s.rates.size for s in sessions]
        batch = BatchStore(sessions, np.array([0, *accumulate(counts)]))
        host, links, rows, paths = _number_resources(sessions)
        n_host = len(host)
        n_res = n_host + len(links)
        bounds, workers, other = _memberships(rows, batch.expand, n_res)
        workers_col = workers[:, None]
        resources = [
            _Resource(name, workers[a:b], workers_col[a:b], other[a:b], allocate)
            for (name, allocate), a, b in zip(host, bounds, bounds[1:])
        ]

        # Per link membership: its session's streams, transport weight
        # and path RTT; ``link_cuts`` starts each link's run of them.
        tail = bounds[n_host]
        link_sessions = batch.expand[workers[tail:]]
        streams = np.array([s.params.parallelism for s in sessions])[link_sessions]
        weights = np.array([s.tcp.aggressiveness for s in sessions])[link_sessions]
        rtts = np.array([s.path_rtt for s in sessions])[link_sessions]
        link_cuts = np.array(bounds[n_host:n_res]) - tail
        n_flows = np.add.reduceat(streams, link_cuts).tolist()
        link_rtt = np.maximum.reduceat(rtts, link_cuts).tolist()
        uniform = (
            np.minimum.reduceat(weights, link_cuts) == np.maximum.reduceat(weights, link_cuts)
        ).tolist()
        # Each link member's first flow in one flow expansion of them all.
        flow_start = streams.cumsum() - streams
        flow_weights = weights.repeat(streams) if not all(uniform) else None
        for j, link in enumerate(links):
            a, b = bounds[n_host + j], bounds[n_host + j + 1]
            la, lb = a - tail, b - tail
            first = int(flow_start[la])
            link_weights = None if uniform[j] else flow_weights[first : first + n_flows[j]]
            resources.append(
                _Resource(
                    f"link:{link.name}",
                    workers[a:b],
                    workers_col[a:b],
                    other[a:b],
                    partial(_allocate_flows, link, streams[la:lb], flow_start[la:lb] - first, link_weights),
                    link=link,
                    n_flows=n_flows[j],
                    link_rtt=link_rtt[j],
                )
            )

        return _Topology(
            sessions=list(sessions),
            offsets=batch.offsets,
            total=batch.total,
            resources=resources,
            caps_full=self._caps_full(sessions, counts)[batch.expand],
            grants=np.full((batch.total, n_res + 1), np.inf),
            link_resources=resources[n_host:],
            session_link_rows=np.array(paths),
            batch=batch,
        )

    # -- demand caps -----------------------------------------------------------

    def _caps_full(self, sessions: list[TransferSession], counts: list[int]) -> np.ndarray:
        """Per-session unconstrained worker rate caps assuming a file in hand (bps)."""
        # Process counts per host: each worker is one process on the
        # source and one on the destination.
        procs: dict[int, int] = {}
        for s, n in zip(sessions, counts):
            for host in (s.source, s.destination):
                procs[id(host)] = procs.get(id(host), 0) + n

        caps = []
        for s in sessions:
            eff = min(
                s.source.cpu.efficiency(procs[id(s.source)]),
                s.destination.cpu.efficiency(procs[id(s.destination)]),
            )
            caps.append(
                min(
                    s.params.parallelism * s.tcp.stream_cap(s.path_rtt),
                    s.source.storage.per_process_read_bps * eff,
                    s.destination.storage.per_process_write_bps * eff,
                )
            )
        return np.array(caps)

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


def _number_resources(
    sessions: list[TransferSession],
) -> tuple[list[tuple[str, Callable]], list[Link], list[list[int]], list[list[int]]]:
    """Number the resources ``sessions`` use, by kind and first appearance.

    Host-side resources come first, in four kinds (read storage, write
    storage, sending NIC, receiving NIC), then links; within a kind, in
    the order sessions first use them.  That order fixes the
    waterfill's float order.  Returns ``(host, links, rows, paths)``:
    each host-side resource's name and allocator, the links, each
    session's resource indices ascending (padded with the sentinel
    index ``n_res`` to one width), and each session's path as link
    slots in path order (padded with the zero-loss sentinel slot).
    """
    ends = [
        (s.source.storage, s.destination.storage, s.source.nic, s.destination.nic)
        for s in sessions
    ]
    kinds = []
    rows: list[list[int]] = [[] for _ in sessions]
    n_host = 0
    for column in zip(*ends):
        seen = {id(obj): obj for obj in column}
        index = {key: r for r, key in enumerate(seen, n_host)}
        for row, obj in zip(rows, column):
            row.append(index[id(obj)])
        kinds.append(seen.values())
        n_host += len(seen)
    read, write, tx, rx = kinds
    host = [
        *((f"read:{fs.name}", fs.allocate_read) for fs in read),
        *((f"write:{fs.name}", fs.allocate_write) for fs in write),
        *((f"nic-tx:{nic.name}", nic.allocate) for nic in tx),
        *((f"nic-rx:{nic.name}", nic.allocate) for nic in rx),
    ]
    links = {id(link): link for s in sessions for link in s.path}
    slot = {key: j for j, key in enumerate(links)}
    paths = [[slot[id(link)] for link in s.path] for s in sessions]
    n_links = len(links)
    width = max(map(len, paths))
    for row, path in zip(rows, paths):
        row += sorted(n_host + j for j in path)
        row += [n_host + n_links] * (width - len(path))
        path += [n_links] * (width - len(path))
    return host, list(links.values()), rows, paths


def _memberships(
    rows: list[list[int]], expand: np.ndarray, n_res: int
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Every (resource, worker) membership, sorted by resource: one CSR array.

    ``rows`` holds each session's resource indices (sentinel-padded)
    and ``expand`` each worker's session.  Returns ``(bounds, workers,
    other)``: resource ``r``'s members are ``workers[bounds[r] :
    bounds[r + 1]]``, ascending, and row ``i`` of ``other`` is the
    resources serving ``workers[i]`` with its own masked to the grants
    matrix's always-inf sentinel column ``n_res``.
    """
    table = np.array(rows)[expand]
    flat = table.ravel()
    # Stable: within a resource, memberships keep worker order.
    order = flat.argsort(kind="stable")
    res_of = flat[order]
    bounds = res_of.searchsorted(np.arange(n_res + 1))
    n_members = int(bounds[-1])
    workers = order[:n_members] // table.shape[1]
    other = table[workers]
    other[other == res_of[:n_members, None]] = n_res
    return bounds.tolist(), workers, other
