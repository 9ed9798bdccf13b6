"""Multi-tenant control plane: admission, fair scheduling, overload.

:class:`ControlPlane` sits in front of a :class:`~repro.service.service.
FalconService` and owns *which* job runs *when*; the service stays the
data plane (sessions, agents, retries, reports).  The split follows the
modular-architecture line of work (PAPERS.md): admission decisions are
cheap, typed, and deterministic, so the system has a defined behavior
under any load instead of an unbounded FIFO.

What it adds, in decision order at submit time:

1. **Circuit breaker** (per testbed) — jobs bound for an endpoint that
   failed ``breaker_threshold`` jobs in a row are shed with reason
   ``breaker-open`` until a cooldown elapses and a probe succeeds.
2. **Admission quota** (per tenant) — a sim-clock token bucket; a
   tenant submitting faster than its sustained rate has the excess
   shed with reason ``quota``.
3. **Graceful degradation** — past ``degrade_at`` queue occupancy,
   BEST_EFFORT jobs are shed with reason ``degraded`` so paying
   traffic keeps its queue room.
4. **Bounded queue** — at ``max_queue`` occupancy something must go:
   the newest job of the lowest queued class if the arrival outranks
   it, else the arrival itself (reason ``queue-full``).

Dispatch serves priority classes strictly high-to-low; within a class,
tenants share by weighted deficit round-robin denominated in dataset
bytes (a tenant's long-run byte share tracks its weight even when its
jobs are smaller or larger than its peers').  When enabled, a queued
job whose class outranks the lowest-priority *running* job preempts
it: the victim's in-flight files return to its queue with progress
kept, and it resumes later from where it stopped.

Every decision is observable (``job.admit`` / ``job.shed`` /
``quota.exhausted`` / ``breaker.state`` / ``job.preempt`` events) and
every shed job ends in the terminal ``REJECTED`` state carrying its
typed ``rejection_reason``.  The control plane is strictly opt-in:
constructing one installs the service's ``on_terminal`` hook, and a
service without one behaves bit-identically to previous releases.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.events import (
    BreakerStateChanged,
    JobAdmitted,
    JobPreempted,
    JobShed,
    QuotaExhausted,
)
from repro.obs.tracer import current_tracer
from repro.service.breaker import BreakerState, CircuitBreaker
from repro.service.jobs import JobState, Priority, TransferJob
from repro.service.service import FalconService
from repro.service.tenancy import TenantSpec, TokenBucket
from repro.testbeds.base import Testbed
from repro.transfer.dataset import Dataset
from repro.units import GB

#: Typed rejection reasons (the closed vocabulary of ``rejection_reason``).
SHED_QUOTA = "quota"
SHED_QUEUE_FULL = "queue-full"
SHED_BREAKER = "breaker-open"
SHED_DEGRADED = "degraded"


@dataclass(frozen=True)
class ControlPolicy:
    """Knobs of the control plane (all deterministic, no RNG).

    Parameters
    ----------
    max_queue:
        Bound on jobs queued across all tenants (count); arrivals past
        it force a ``queue-full`` shed.
    quantum_bytes:
        Deficit round-robin quantum in dataset bytes added to a
        tenant's deficit each time the scheduler's pointer reaches it;
        weights multiply it.
    breaker_threshold:
        Consecutive FAILED jobs on one testbed that open its breaker.
    breaker_cooldown_s:
        Simulated seconds an open breaker sheds before probing.
    degrade_at:
        Queue-occupancy fraction (of ``max_queue``) at which
        BEST_EFFORT arrivals start being shed with reason ``degraded``.
    preemption:
        Whether a higher-class queued job may suspend the
        lowest-class running job to take its slot.
    """

    max_queue: int = 64
    quantum_bytes: float = 4.0 * GB
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 120.0
    degrade_at: float = 0.75
    preemption: bool = True

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.quantum_bytes <= 0.0:
            raise ValueError("quantum_bytes must be positive")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_s <= 0.0:
            raise ValueError("breaker_cooldown_s must be positive")
        if not 0.0 < self.degrade_at <= 1.0:
            raise ValueError("degrade_at must be in (0, 1]")


@dataclass
class _ClassState:
    """One priority class's round-robin ring over its tenants."""

    #: Tenant names in registration order — the deterministic tie-break.
    ring: list = field(default_factory=list)
    #: Index of the tenant the pointer is currently visiting.
    pos: int = 0
    #: Whether the current visit already received its arrival quantum.
    granted: bool = False
    #: Queued jobs across the class's tenants (kept in step with the
    #: deques so the dispatch fast path never scans them).
    count: int = 0


@dataclass
class _TenantState:
    """Mutable scheduler-side record for one registered tenant."""

    spec: TenantSpec
    bucket: TokenBucket
    cls: _ClassState
    queue: deque = field(default_factory=deque)
    #: Deficit round-robin balance in dataset bytes.
    deficit: float = 0.0


class ControlPlane:
    """Admission, quotas, fair scheduling, and load shedding.

    Construct it around a :class:`FalconService` whose ``on_terminal``
    hook is free; the plane installs itself there to learn about
    completions.  Register tenants, then submit through
    :meth:`submit` — jobs from the service's own ``submit()`` keep
    working untouched (they bypass the control queue entirely).
    """

    def __init__(self, service: FalconService, policy: ControlPolicy | None = None) -> None:
        if service.on_terminal is not None:
            raise ValueError("service already has an on_terminal hook installed")
        self.service = service
        self.policy = policy or ControlPolicy()
        service.on_terminal = self._on_terminal
        self._tenants: dict[str, _TenantState] = {}
        self._classes: dict[Priority, _ClassState] = {}
        #: Classes high-to-low (cached; rebuilt on registration).
        self._class_order: list[Priority] = []
        #: Running count of queued jobs (kept in step with the deques —
        #: the dispatch loop reads it once per iteration).
        self._depth = 0
        self._breakers: dict[str, CircuitBreaker] = {}
        self._pumping = False
        #: Dataset bytes waiting in the tenant queues (the shard router's
        #: load gauge; kept in step with ``_depth`` at every touch point).
        self._queued_bytes = 0.0
        #: Shed jobs in decision order (terminal REJECTED, with reasons).
        self.shed: list[TransferJob] = []

    # -- registration ----------------------------------------------------------

    def register_tenant(self, spec: TenantSpec) -> None:
        """Add a tenant; registration order is the scheduler tie-break."""
        if spec.name in self._tenants:
            raise ValueError(f"tenant {spec.name!r} already registered")
        now = self.service.engine.now
        cls = self._classes.setdefault(spec.priority, _ClassState())
        cls.ring.append(spec.name)
        self._tenants[spec.name] = _TenantState(
            spec=spec, bucket=TokenBucket(spec.quota_rate, spec.quota_burst, now), cls=cls
        )
        self._class_order = sorted(self._classes, reverse=True)

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        testbed: Testbed,
        dataset: Dataset,
        tenant: str,
        name: Optional[str] = None,
    ) -> TransferJob:
        """Admit, queue, shed, or start one job for ``tenant``.

        Always returns the job; a shed job comes back already in the
        ``REJECTED`` state with ``rejection_reason`` set, so callers
        never need a second channel for the verdict.
        """
        st = self._tenants.get(tenant)
        if st is None:
            raise KeyError(f"unknown tenant {tenant!r}")
        now = self.service.engine.now
        job = self.service.register(
            testbed, dataset, name=name, tenant=tenant, priority=st.spec.priority
        )
        breaker = self._breaker(testbed)
        if not breaker.admits(now):
            self._shed(job, SHED_BREAKER)
            return job
        if not st.bucket.try_take(now):
            tracer = current_tracer()
            if tracer is not None:
                tracer.emit(
                    QuotaExhausted, tenant=tenant, job=job.name, rate=st.spec.quota_rate
                )
            self._shed(job, SHED_QUOTA)
            return job
        depth = self.depth
        if (
            job.priority is Priority.BEST_EFFORT
            and depth >= self.policy.degrade_at * self.policy.max_queue
        ):
            self._shed(job, SHED_DEGRADED)
            return job
        if depth >= self.policy.max_queue and not self._evict_for(job):
            self._shed(job, SHED_QUEUE_FULL)
            return job
        # The DRR cost (dataset bytes) is read on every scheduling pass;
        # price it once at admission.
        job._extras["cost"] = job.dataset.total_bytes
        st.queue.append(job)
        st.cls.count += 1
        self._depth += 1
        self._queued_bytes += job._extras["cost"]
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit(
                JobAdmitted,
                tenant=tenant,
                job=job.name,
                job_id=job.job_id,
                priority=job.priority.label,
                queue_depth=self.depth,
            )
        self._pump()
        return job

    # -- introspection ---------------------------------------------------------

    @property
    def depth(self) -> int:
        """Jobs currently waiting in control-plane queues (count)."""
        return self._depth

    @property
    def queued_bytes(self) -> float:
        """Dataset bytes waiting in control-plane queues.

        Together with the running set this is the load gauge the shard
        router's ``least_loaded`` placement reads
        (:class:`repro.service.sharding.ShardRouter`).
        """
        return self._queued_bytes

    def admission_verdict(self, testbed: Testbed, priority: Priority) -> Optional[str]:
        """Would a ``priority`` job for ``testbed`` be shed right now?

        Side-effect-free preview of the admission pipeline *minus* the
        quota stage (quotas are per tenant and, under sharding, global
        rather than shard-local): returns the typed shed reason a
        submission would get, or ``None`` if it would queue.  The shard
        router uses this to try alternate shards before a saturated one
        sheds a reroutable job.
        """
        now = self.service.engine.now
        if not self._breaker(testbed).admits(now):
            return SHED_BREAKER
        depth = self.depth
        if (
            priority is Priority.BEST_EFFORT
            and depth >= self.policy.degrade_at * self.policy.max_queue
        ):
            return SHED_DEGRADED
        if depth >= self.policy.max_queue and not self._eviction_room(priority):
            return SHED_QUEUE_FULL
        return None

    def shed_job(self, job: TransferJob, reason: str) -> None:
        """Shed a registered-but-unqueued job with a typed reason.

        External-router surface (mirrors :meth:`FalconService.reject`
        being public for this plane): the sharded control plane sheds
        quota-rejected jobs here so audit trail, events, and metrics
        are identical to a locally shed job.
        """
        self._shed(job, reason)

    def queued(self) -> list[TransferJob]:
        """Waiting jobs in service order: class high-to-low, ring, FIFO."""
        out: list[TransferJob] = []
        for prio in self._class_order:
            for tenant in self._classes[prio].ring:
                out.extend(self._tenants[tenant].queue)
        return out

    def breaker_state(self, testbed: Testbed) -> BreakerState:
        """Current breaker state for ``testbed`` (CLOSED if never used)."""
        return self._breaker(testbed).state

    # -- shedding --------------------------------------------------------------

    def _shed(self, job: TransferJob, reason: str) -> None:
        """Reject ``job`` (must be QUEUED) with a typed reason."""
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit(
                JobShed,
                tenant=job.tenant or "",
                job=job.name,
                job_id=job.job_id,
                priority=job.priority.label,
                reason=reason,
            )
        self.shed.append(job)
        self.service.reject(job, reason)

    def _eviction_room(self, priority: Priority) -> bool:
        """Pure twin of :meth:`_evict_for`: could room be made?

        True iff the lowest queued class is strictly below ``priority``
        (the same predicate ``_evict_for`` acts on, without shedding).
        """
        for prio in reversed(self._class_order):
            if any(self._tenants[t].queue for t in self._classes[prio].ring):
                return prio < priority
        return False

    def _evict_for(self, incoming: TransferJob) -> bool:
        """Make queue room for ``incoming`` by shedding a lower job.

        True if room was made (a strictly lower-class queued job was
        shed); False if the arrival itself is the right victim.
        """
        victim_class: Optional[Priority] = None
        for prio in reversed(self._class_order):
            if any(self._tenants[t].queue for t in self._classes[prio].ring):
                victim_class = prio
                break
        if victim_class is None or victim_class >= incoming.priority:
            return False
        # Newest job of the lowest class: last in, least sunk waiting.
        candidates: list[TransferJob] = []
        for tenant in self._classes[victim_class].ring:
            candidates.extend(self._tenants[tenant].queue)
        victim = max(candidates, key=lambda j: j.job_id)
        self._unqueue(victim)
        self._shed(victim, SHED_QUEUE_FULL)
        return True

    def _unqueue(self, job: TransferJob) -> None:
        """Drop ``job`` from its tenant queue if it is waiting there."""
        if job.tenant is None:
            return
        st = self._tenants.get(job.tenant)
        if st is not None and job in st.queue:
            st.queue.remove(job)
            st.cls.count -= 1
            self._depth -= 1
            self._queued_bytes -= job._extras["cost"]

    # -- scheduling ------------------------------------------------------------

    def _pick(self) -> Optional[TransferJob]:
        """Dequeue the next job: highest class first, WDRR within it."""
        for prio in self._class_order:
            cls = self._classes[prio]
            if cls.count:
                return self._pick_drr(cls)
        return None

    def _pick_drr(self, cls: _ClassState) -> TransferJob:
        """Weighted deficit round-robin over one class's tenants.

        The pointer grants ``quantum_bytes * weight`` on *arrival* at a
        nonempty tenant, serves while the deficit covers the head job's
        dataset bytes, and moves on otherwise (deficit kept).  A tenant
        that empties forfeits its deficit — credit never accrues to an
        idle queue.  Caller guarantees some tenant in the class has
        work, so the loop terminates: every full lap grants quantum to
        a nonempty queue.
        """
        quantum = self.policy.quantum_bytes
        while True:
            st = self._tenants[cls.ring[cls.pos]]
            if not cls.granted:
                if st.queue:
                    st.deficit += quantum * st.spec.weight
                cls.granted = True
            if st.queue:
                cost = st.queue[0]._extras["cost"]
                if st.deficit >= cost:
                    st.deficit -= cost
                    job = st.queue.popleft()
                    cls.count -= 1
                    self._depth -= 1
                    self._queued_bytes -= cost
                    if not st.queue:
                        st.deficit = 0.0
                    return job
            else:
                st.deficit = 0.0
            cls.pos = (cls.pos + 1) % len(cls.ring)
            cls.granted = False

    def _preempt_one(self) -> bool:
        """Suspend the weakest running job if a queued job outranks it.

        The victim is the lowest-class, most-recently-started running
        job (job id breaks the final tie).  Same-class jobs never
        preempt each other, so ping-pong is impossible.  Jobs that
        entered through the service's own ``submit()`` (no tenant) are
        never preempted — the plane has no queue to resume them from.
        """
        waiting = self.queued()
        if not waiting:
            return False
        top = max(j.priority for j in waiting)
        victims = [
            j for j in self.service.running() if j.tenant is not None and j.priority < top
        ]
        if not victims:
            return False
        victim = min(victims, key=lambda j: (j.priority, -(j.started_at or 0.0), -j.job_id))
        if victim._extras.pop("probe", None):
            self._breaker(victim.testbed).release_probe()
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit(
                JobPreempted,
                tenant=victim.tenant or "",
                job=victim.name,
                job_id=victim.job_id,
                priority=victim.priority.label,
                by_priority=Priority(top).label,
            )
        self.service.preempt(victim)
        # Back of the line would double-charge its wait: resume first.
        if victim.tenant is not None:
            st = self._tenants[victim.tenant]
            st.queue.appendleft(victim)
            st.cls.count += 1
            self._depth += 1
            self._queued_bytes += victim._extras["cost"]
        return True

    def _pump(self) -> None:
        """Start queued jobs while slots (or preemptable victims) exist."""
        if self._pumping:
            return
        self._pumping = True
        try:
            while self.depth > 0:
                if not self.service.has_slot:
                    if not (self.policy.preemption and self._preempt_one()):
                        break
                    if not self.service.has_slot:
                        break
                job = self._pick()
                if job is None:
                    break
                breaker = self._breaker(job.testbed)
                was_probing = breaker.state is not BreakerState.CLOSED
                if not breaker.allow(self.service.engine.now):
                    self._shed(job, SHED_BREAKER)
                    continue
                if was_probing:
                    job._extras["probe"] = True
                self.service.start_job(job)
        finally:
            self._pumping = False

    # -- completion feedback ---------------------------------------------------

    def _on_terminal(self, job: TransferJob) -> None:
        """Service hook: account the outcome, then refill freed slots."""
        if job.state is JobState.REJECTED:
            return
        if job.state is JobState.CANCELLED:
            # Cancelled while waiting in our queues, or mid-run while
            # holding the breaker probe: tidy both.
            self._unqueue(job)
            if job._extras.pop("probe", None):
                self._breaker(job.testbed).release_probe()
        elif job.tenant is not None:
            probe = bool(job._extras.pop("probe", None))
            self._breaker(job.testbed).record(
                self.service.engine.now, failed=job.state is JobState.FAILED, probe=probe
            )
        self._pump()

    # -- breakers --------------------------------------------------------------

    def _breaker(self, testbed: Testbed) -> CircuitBreaker:
        """The (lazily created) breaker guarding ``testbed``."""
        brk = self._breakers.get(testbed.name)
        if brk is None:

            def on_change(old: BreakerState, new: BreakerState, now: float, tb=testbed) -> None:
                tracer = current_tracer()
                if tracer is not None:
                    tracer.emit(
                        BreakerStateChanged,
                        testbed=tb.name,
                        old_state=old.value,
                        new_state=new.value,
                        failures=self._breakers[tb.name].failures,
                    )
            brk = CircuitBreaker(
                self.policy.breaker_threshold,
                self.policy.breaker_cooldown_s,
                on_change=on_change,
            )
            self._breakers[testbed.name] = brk
        return brk
