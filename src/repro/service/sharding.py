"""Sharded data plane: N independent transfer engines behind one plane.

The modular-architecture line of work (PAPERS.md) splits a transfer
service into a thin control plane and a fleet of high-throughput data
movers.  :class:`~repro.service.control.ControlPlane` (PR 8) built the
first half; this module adds the *shard* axis:

* a :class:`DataShard` is one fully independent data-plane engine —
  its own :class:`~repro.sim.engine.SimulationEngine`, its own
  :class:`~repro.transfer.executor.FluidTransferNetwork` (and hence
  its own contiguous :class:`~repro.sim.batch.BatchStore`), its own
  :class:`~repro.service.service.FalconService`, and its own replicas
  of every testbed it serves.  Nothing is shared across shards, so a
  fault, a breaker trip, or a saturated queue on one shard cannot
  touch another;
* a :class:`ShardRouter` maps admitted jobs onto shards with
  deterministic placement policies — ``by_testbed`` and ``by_tenant``
  (stable keyed-hash affinity) or ``least_loaded`` (per-shard
  queued-bytes / active-session gauges, lowest index breaking ties);
* a :class:`ShardedControlPlane` composes one per-shard
  :class:`~repro.service.control.ControlPlane` (shard-local WDRR
  queues, degradation bounds, and circuit breakers) under a global
  layer that owns what must not be sharded — tenant admission quotas
  and the placement decision — plus *rebalance-on-shed*: a job whose
  home shard would shed it is offered to the other shards in
  least-loaded order before any shedding happens.

Per-shard optimizer state stays isolated by construction (each shard's
service derives its own RNG streams), so tuning signals are never
cross-contaminated between shards — the heuristic-tuning concern of
Arslan & Kosar (PAPERS.md).

Determinism and parity:

* all placement is pure arithmetic over names and gauges — no RNG;
* shard engines advance in index order to the same target time
  (:meth:`ShardedControlPlane.run_until`), so traces interleave
  deterministically;
* a 1-shard plane is **bit-identical** to an unsharded
  :class:`ControlPlane` driven the same way (the shards=1 parity
  test): the pre-checks it adds are side-effect-free, shard 0 keeps
  the caller's base seed, and routing events (``job.route`` /
  ``shard.saturated``) are emitted only when there are 2+ shards.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

from repro.config import DEFAULT_CONFIG, SimConfig
from repro.obs.events import JobRouted, QuotaExhausted, ShardSaturated
from repro.obs.tracer import current_tracer
from repro.service.control import SHED_BREAKER, SHED_QUOTA, ControlPlane, ControlPolicy
from repro.service.jobs import JobState, TransferJob
from repro.service.policy import RetryPolicy
from repro.service.service import FalconService
from repro.service.tenancy import TenantSpec, TokenBucket
from repro.sim.engine import SimulationEngine
from repro.testbeds.base import Testbed
from repro.transfer.dataset import Dataset
from repro.transfer.executor import FluidTransferNetwork

#: A testbed, or a zero-argument factory each shard calls to build its
#: own private replica.  Multi-shard planes require the factory form —
#: sharing one Testbed instance would share links (double-booking
#: capacity) and leak faults across shards.
TestbedSpec = Union[Testbed, Callable[[], Testbed]]

#: The closed vocabulary of placement policies.
PLACEMENTS = ("by_testbed", "by_tenant", "least_loaded")


def _stable_index(key: str, n: int) -> int:
    """Deterministic shard index for ``key`` (keyed blake2b, mod ``n``).

    Same construction as :func:`repro.runner.seeds.derive_seed`: stable
    across processes and runs, independent of registration order.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n


@dataclass
class DataShard:
    """One independent data-plane engine.

    The engine/network/service triple is fully private to the shard;
    ``plane`` (the shard-local :class:`ControlPlane`) is installed by
    :class:`ShardedControlPlane` at construction.  Testbed replicas
    built from factories are cached per shard in ``_testbeds`` (keyed
    by the factory object; never iterated, so identity keys stay
    deterministic).
    """

    index: int
    name: str
    engine: SimulationEngine
    network: FluidTransferNetwork
    service: FalconService
    plane: Optional[ControlPlane] = None
    _testbeds: dict = field(default_factory=dict, repr=False)

    def localize(self, spec: TestbedSpec) -> Testbed:
        """This shard's replica of ``spec`` (built once per factory)."""
        if isinstance(spec, Testbed):
            return spec
        testbed = self._testbeds.get(spec)
        if testbed is None:
            testbed = spec()
            self._testbeds[spec] = testbed
        return testbed

    # -- load gauges (what least_loaded placement reads) -----------------------

    @property
    def queued_bytes(self) -> float:
        """Dataset bytes waiting in this shard's control queues."""
        return self.plane.queued_bytes if self.plane is not None else 0.0

    @property
    def active_sessions(self) -> int:
        """Jobs currently transferring on this shard (count)."""
        return len(self.service.running())

    @property
    def load_bytes(self) -> float:
        """Queued plus in-flight dataset bytes — the placement gauge."""
        running = sum(job.dataset.total_bytes for job in self.service.running())
        return self.queued_bytes + running

    @property
    def busy(self) -> bool:
        """True while this shard still has queued or running work."""
        if self.plane is not None and self.plane.depth > 0:
            return True
        return bool(self.service.running())


def make_shards(
    n: int,
    *,
    seed: int = 0,
    max_active: int = 4,
    config: SimConfig = DEFAULT_CONFIG,
    fault_policy: RetryPolicy | None = None,
) -> list[DataShard]:
    """Build ``n`` independent data-plane shards.

    Shard 0 keeps the caller's base ``seed`` — that is what makes a
    1-shard plane bit-identical to an unsharded service — and shards
    1..n-1 derive independent seeds through the runner's keyed hash,
    so per-shard measurement jitter and optimizer state never
    correlate across shards.
    """
    from repro.runner.seeds import derive_seed

    if n < 1:
        raise ValueError("need at least one shard")
    shards: list[DataShard] = []
    for i in range(n):
        engine = SimulationEngine(dt=config.dt)
        network = FluidTransferNetwork(engine, config)
        service = FalconService(
            engine=engine,
            network=network,
            max_active=max_active,
            seed=seed if i == 0 else derive_seed(seed, "shard", i),
            fault_policy=fault_policy,
        )
        shards.append(
            DataShard(index=i, name=f"shard{i}", engine=engine, network=network, service=service)
        )
    return shards


class ShardRouter:
    """Deterministic placement of admitted jobs onto data-plane shards.

    ``by_testbed`` and ``by_tenant`` are affinity policies: a stable
    keyed hash of the routing key picks the home shard, so the same
    testbed (or tenant) always lands on the same shard — which is what
    keeps per-shard optimizer history coherent and makes shard-local
    breakers meaningful.  ``least_loaded`` reads the per-shard gauges
    (queued + in-flight dataset bytes, then active sessions, then the
    shard index as the final tie-break) at each placement, spreading
    load without any RNG.
    """

    def __init__(self, shards: Sequence[DataShard], placement: str = "least_loaded") -> None:
        if not shards:
            raise ValueError("need at least one shard")
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r} (one of {PLACEMENTS})")
        self.shards = list(shards)
        self.placement = placement

    def place(self, tenant: str, testbed_key: str) -> DataShard:
        """The home shard for one (tenant, testbed) submission."""
        n = len(self.shards)
        if self.placement == "by_testbed":
            return self.shards[_stable_index(testbed_key, n)]
        if self.placement == "by_tenant":
            return self.shards[_stable_index(tenant, n)]
        return min(self.shards, key=self._load_key)

    def fallbacks(self, home: DataShard) -> list[DataShard]:
        """Every other shard, least-loaded first (rebalance order)."""
        rest = [shard for shard in self.shards if shard is not home]
        rest.sort(key=self._load_key)
        return rest

    @staticmethod
    def _load_key(shard: DataShard) -> tuple:
        return (shard.load_bytes, shard.active_sessions, shard.index)


@dataclass
class _GlobalTenant:
    """Sharded-plane tenant record: the spec plus its *global* quota."""

    spec: TenantSpec
    bucket: TokenBucket


class ShardedControlPlane:
    """Admission and routing across N independent data-plane shards.

    Composition: each shard gets its own :class:`ControlPlane` — that
    sub-plane owns everything that must be shard-local (WDRR tenant
    queues, the bounded queue and degradation threshold, per-testbed
    circuit breakers, preemption, dispatch).  This wrapper owns the
    two things that must stay global: per-tenant admission quotas (a
    tenant cannot multiply its rate by the shard count) and the
    placement decision.

    Admission order matches the unsharded plane exactly — breaker,
    quota, degradation, bounded queue — with one addition between the
    breaker and the final verdict: if the home shard would shed the
    job, *rebalance-on-shed* offers it to the other shards in
    least-loaded order, and only when every shard refuses does the
    home shard shed it (``shard.saturated`` records the refusal either
    way).  With a single shard all of this collapses to the unsharded
    code path, bit for bit.
    """

    def __init__(
        self,
        shards: Sequence[DataShard],
        policy: ControlPolicy | None = None,
        *,
        placement: str = "least_loaded",
        rebalance: bool = True,
    ) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        names = [shard.name for shard in shards]
        if len(set(names)) != len(names):
            raise ValueError("shard names must be unique")
        self.shards = list(shards)
        self.policy = policy or ControlPolicy()
        self.router = ShardRouter(self.shards, placement)
        self.rebalance = rebalance
        for shard in self.shards:
            shard.plane = ControlPlane(shard.service, self.policy)
        self._tenants: dict[str, _GlobalTenant] = {}
        #: Routing key per factory object (prototype testbed name).
        self._route_keys: dict = {}
        #: Shed jobs across all shards, in decision order.
        self.shed: list[TransferJob] = []

    # -- clock -----------------------------------------------------------------

    @property
    def now(self) -> float:
        """The shared simulation clock (shard 0 is the reference)."""
        return self.shards[0].engine.now

    def run_until(self, time: float) -> None:
        """Advance every shard engine to ``time``, in shard order.

        Shards are independent simulations, so advancing them one
        after another is exact — there is no cross-shard event to
        interleave — and the fixed order keeps traces deterministic.
        """
        for shard in self.shards:
            shard.engine.run_until(time)

    def run_for(self, span: float) -> None:
        """Advance every shard engine by ``span`` seconds."""
        self.run_until(self.now + span)

    @property
    def busy(self) -> bool:
        """True while any shard has queued or running work."""
        return any(shard.busy for shard in self.shards)

    def drain(self, deadline: float, step: float) -> None:
        """Run until idle or ``deadline``, advancing ``step`` at a time."""
        while self.now < deadline and self.busy:
            self.run_until(min(deadline, self.now + step))

    # -- registration ----------------------------------------------------------

    def register_tenant(self, spec: TenantSpec) -> None:
        """Register ``spec`` on every shard; its quota stays global.

        Sub-planes receive the spec with an unlimited quota — the
        single global token bucket here is the only admission rate
        limit, so a tenant's sustained rate does not scale with the
        shard count.
        """
        if spec.name in self._tenants:
            raise ValueError(f"tenant {spec.name!r} already registered")
        self._tenants[spec.name] = _GlobalTenant(
            spec=spec, bucket=TokenBucket(spec.quota_rate, spec.quota_burst, self.now)
        )
        unlimited = replace(spec, quota_rate=math.inf)
        for shard in self.shards:
            shard.plane.register_tenant(unlimited)

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        testbed: TestbedSpec,
        dataset: Dataset,
        tenant: str,
        name: Optional[str] = None,
    ) -> TransferJob:
        """Route, admit, queue, or shed one job for ``tenant``.

        ``testbed`` must be a zero-argument factory when there are 2+
        shards (each shard builds its own replica); a plain
        :class:`Testbed` is accepted on a 1-shard plane.  Like the
        unsharded plane, always returns the job — shed jobs come back
        terminal ``REJECTED`` with a typed ``rejection_reason``.
        """
        st = self._tenants.get(tenant)
        if st is None:
            raise KeyError(f"unknown tenant {tenant!r}")
        now = self.now
        priority = st.spec.priority
        home = self.router.place(tenant, self._route_key(testbed))
        chosen = home
        verdict = home.plane.admission_verdict(home.localize(testbed), priority)
        if verdict is not None and len(self.shards) > 1:
            target: Optional[DataShard] = None
            if self.rebalance:
                for alt in self.router.fallbacks(home):
                    if alt.plane.admission_verdict(alt.localize(testbed), priority) is None:
                        target = alt
                        break
            self._note_saturated(home, verdict, target)
            if target is not None:
                chosen, verdict = target, None
        # Quota is global and sits between the breaker gate and the
        # occupancy gates, exactly as in the unsharded pipeline: a
        # breaker-shed job never pays a token.
        if verdict != SHED_BREAKER and not st.bucket.try_take(now):
            job = chosen.service.register(
                chosen.localize(testbed), dataset, name=name, tenant=tenant, priority=priority
            )
            tracer = current_tracer()
            if tracer is not None:
                tracer.emit(
                    QuotaExhausted, tenant=tenant, job=job.name, rate=st.spec.quota_rate
                )
            chosen.plane.shed_job(job, SHED_QUOTA)
            self.shed.append(job)
            return job
        job = chosen.plane.submit(chosen.localize(testbed), dataset, tenant, name=name)
        if job.state is JobState.REJECTED:
            self.shed.append(job)
        elif len(self.shards) > 1:
            tracer = current_tracer()
            if tracer is not None:
                tracer.emit(
                    JobRouted,
                    tenant=tenant,
                    job=job.name,
                    job_id=job.job_id,
                    shard=chosen.name,
                    policy=self.router.placement,
                    queue_depth=chosen.plane.depth,
                )
        return job

    # -- introspection ---------------------------------------------------------

    @property
    def depth(self) -> int:
        """Jobs waiting across every shard's control queues (count)."""
        return sum(shard.plane.depth for shard in self.shards)

    def queued(self) -> list[TransferJob]:
        """Waiting jobs, shard by shard in index order."""
        out: list[TransferJob] = []
        for shard in self.shards:
            out.extend(shard.plane.queued())
        return out

    def jobs(self) -> list[TransferJob]:
        """Every job ever registered, shard by shard in index order."""
        out: list[TransferJob] = []
        for shard in self.shards:
            out.extend(shard.service.jobs)
        return out

    # -- internals -------------------------------------------------------------

    def _route_key(self, spec: TestbedSpec) -> str:
        """Stable routing key: the testbed's name.

        Factories are resolved through a cached prototype build, so
        anonymous factories (lambdas, partials) key correctly by the
        testbed they produce rather than colliding on ``__name__``.
        """
        if isinstance(spec, Testbed):
            if len(self.shards) > 1:
                raise ValueError(
                    "multi-shard planes need a testbed factory (each shard "
                    "builds its own replica); got a Testbed instance"
                )
            return spec.name
        key = self._route_keys.get(spec)
        if key is None:
            key = spec().name
            self._route_keys[spec] = key
        return key

    def _note_saturated(
        self, home: DataShard, reason: str, target: Optional[DataShard]
    ) -> None:
        """Record a home-shard refusal (and the reroute, if any)."""
        tracer = current_tracer()
        if tracer is None:
            return
        tracer.emit(
            ShardSaturated,
            shard=home.name,
            reason=reason,
            queue_depth=home.plane.depth,
            rerouted_to=target.name if target is not None else "",
        )
