"""Typed, frozen trace-event records and the event-type registry.

Every observable fact a run produces — a fired event, a monitor
sample, an optimizer decision, a fault injection — is one frozen
dataclass here.  Records are *data*, never behaviour: fields are JSON
primitives so the JSONL exporter can round-trip them exactly, and the
registry (:data:`EVENT_TYPES`) is the single source of truth that
``docs/events.md`` is generated from (``python -m repro.obs.schema``).

Conventions:

* every event carries ``time`` — the simulation clock in seconds;
* field names ending in ``_bps`` / ``_bytes`` / ``_s`` carry their unit
  in the name; any other physical quantity documents its unit in the
  field metadata (``unit=...``) and the generated schema table;
* events are immutable and comparable — two runs with the same seed
  must produce equal event sequences (pinned by an integration test).
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Any, ClassVar, Iterator

#: Event-type name -> event dataclass; populated by :func:`event`.
EVENT_TYPES: dict[str, type["TraceEvent"]] = {}


def unit_field(unit: str, doc: str, default: Any = MISSING) -> Any:
    """A dataclass field annotated with a unit and description.

    ``unit`` uses the repo's canonical unit names (``s`` seconds,
    ``bps`` bits per second, ``bytes``, or ``-`` for unitless); both
    strings surface in the generated schema reference.
    """
    if default is MISSING:
        return field(metadata={"unit": unit, "doc": doc})
    return field(default=default, metadata={"unit": unit, "doc": doc})


def event(type_name: str, emitted_by: str) -> Any:
    """Class decorator: freeze, register, and label one event type.

    ``type_name`` is the wire name (the ``type`` key of every JSONL
    line); ``emitted_by`` names the instrumentation site for the schema
    reference.  Registration rejects duplicate wire names so the schema
    stays unambiguous.
    """

    def decorate(cls: type) -> type:
        frozen = dataclass(frozen=True)(cls)
        if type_name in EVENT_TYPES:
            raise ValueError(f"duplicate event type {type_name!r}")
        frozen.type = type_name
        frozen.emitted_by = emitted_by
        EVENT_TYPES[type_name] = frozen
        return frozen

    return decorate


@dataclass(frozen=True)
class TraceEvent:
    """Base record: anything that happened at a simulation time.

    ``time`` is the simulation clock in seconds (not wall time — traces
    must be byte-identical across machines and re-runs).
    """

    type: ClassVar[str] = ""
    emitted_by: ClassVar[str] = ""

    time: float = unit_field("s", "simulation time the event occurred at")

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping: ``type`` first, then fields in order."""
        out: dict[str, Any] = {"type": self.type}
        out.update(asdict(self))
        return out


def from_dict(data: dict[str, Any]) -> TraceEvent:
    """Rebuild an event from its :meth:`TraceEvent.to_dict` mapping."""
    payload = dict(data)
    type_name = payload.pop("type", None)
    cls = EVENT_TYPES.get(type_name or "")
    if cls is None:
        raise ValueError(f"unknown event type {type_name!r}")
    return cls(**payload)


def iter_event_types() -> Iterator[type[TraceEvent]]:
    """Registered event classes in wire-name order (schema order)."""
    for name in sorted(EVENT_TYPES):
        yield EVENT_TYPES[name]


def field_specs(cls: type[TraceEvent]) -> list[tuple[str, str, str, str]]:
    """``(name, type, unit, doc)`` rows for one event class.

    The unit column falls back to ``-`` (unitless) when the field
    carries its unit in its name (``*_bps``, ``*_bytes``, ``*_s``) or
    has none.
    """
    rows = []
    for f in fields(cls):
        ann = f.type if isinstance(f.type, str) else getattr(f.type, "__name__", str(f.type))
        rows.append(
            (
                f.name,
                ann,
                str(f.metadata.get("unit", "-")),
                str(f.metadata.get("doc", "")),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Engine events.
# ---------------------------------------------------------------------------


@event("engine.event", emitted_by="repro.sim.engine.SimulationEngine._fire_due_events")
class EngineEventFired(TraceEvent):
    """A scheduled discrete event fired.

    Emitted immediately before the callback runs, so events the
    callback itself emits appear after this record in the trace.
    """

    name: str = unit_field("-", "event label passed to schedule_*", "")


# ---------------------------------------------------------------------------
# Fluid arbitration events.
# ---------------------------------------------------------------------------


@event("fluid.rebalance", emitted_by="repro.transfer.executor.FluidTransferNetwork._emit_rebalance")
class FluidRebalance(TraceEvent):
    """A new joint equilibrium across all active sessions.

    Emitted once per equilibrium recompute: when a topology rebuild, a
    demand change or a link-fault change invalidates the cached
    allocation.  Steps that reuse the cached allocation emit nothing,
    so each record holds until the next one.  ``time`` is the start of
    the fluid step that first runs on the allocation.
    """

    sessions: int = unit_field("-", "active sessions arbitrated", 0)
    workers: int = unit_field("-", "total workers across those sessions", 0)
    demand_bps: float = unit_field("bps", "sum of per-worker demand caps", 0.0)
    allocated_bps: float = unit_field("bps", "sum of granted equilibrium rates", 0.0)


@event("fluid.cascade", emitted_by="repro.sim.batch.BatchStore.step")
class BatchCascadeFallback(TraceEvent):
    """The batched advance fell back to per-worker cascade resolution.

    Emitted only on steps where at least one worker finished its file
    (completion cascades — queue pops, inter-file gaps, possible queue
    exhaustion — are the genuinely discrete part the vectorized pass
    cannot resolve).  A trace dominated by these records means the
    workload is completion-bound, not streaming-bound.
    """

    sessions: int = unit_field("-", "sessions with at least one cascading worker", 0)
    workers: int = unit_field("-", "workers resolved via the per-worker cascade", 0)


@event(
    "fluid.topology_rebuild",
    emitted_by="repro.transfer.executor.FluidTransferNetwork._topology",
)
class TopologyRebuild(TraceEvent):
    """The executor rebuilt its cached resource topology.

    Rebuilds happen when sessions join/leave or change worker count or
    parallelism; frequent rebuilds in a trace flag a thrashing cache.
    """

    sessions: int = unit_field("-", "sessions in the rebuilt topology", 0)
    workers: int = unit_field("-", "total workers in the rebuilt topology", 0)
    resources: int = unit_field("-", "shared resources being arbitrated", 0)


# ---------------------------------------------------------------------------
# Measurement / decision events.
# ---------------------------------------------------------------------------


@event("monitor.sample", emitted_by="repro.core.agent.FalconAgent.decide")
class MonitorSampleTaken(TraceEvent):
    """An agent collected one interval sample from its monitor."""

    session: str = unit_field("-", "session the sample measures", "")
    duration_s: float = unit_field("s", "full interval length", 0.0)
    throughput_bps: float = unit_field("bps", "measured (jittered) goodput", 0.0)
    loss_rate: float = unit_field("-", "fraction of sent bytes lost", 0.0)
    concurrency: int = unit_field("-", "workers in force during the interval", 0)
    parallelism: int = unit_field("-", "streams per worker during the interval", 1)
    pipelining: int = unit_field("-", "pipelining depth during the interval", 1)
    valid: bool = unit_field("-", "False when the interval overlapped an outage", True)


@event("utility.eval", emitted_by="repro.core.agent.FalconAgent.decide")
class UtilityEvaluated(TraceEvent):
    """A sample was scored by the shared utility function."""

    session: str = unit_field("-", "session being scored", "")
    utility: float = unit_field("-", "utility value assigned to the interval", 0.0)
    throughput_bps: float = unit_field("bps", "throughput the score was computed from", 0.0)
    loss_rate: float = unit_field("-", "loss rate the score was computed from", 0.0)


@event("optimizer.decision", emitted_by="repro.core.agent.FalconAgent.decide")
class OptimizerDecision(TraceEvent):
    """The online search proposed the next parameter setting."""

    session: str = unit_field("-", "session being tuned", "")
    optimizer: str = unit_field("-", "optimizer class name (GD/BO/HC/...)", "")
    concurrency: int = unit_field("-", "chosen worker count", 0)
    parallelism: int = unit_field("-", "chosen streams per worker", 1)
    pipelining: int = unit_field("-", "chosen pipelining depth", 1)
    utility: float = unit_field("-", "utility of the interval that drove the choice", 0.0)


# ---------------------------------------------------------------------------
# Session / transfer events.
# ---------------------------------------------------------------------------


@event("session.start", emitted_by="repro.transfer.executor.FluidTransferNetwork.add_session")
class SessionStart(TraceEvent):
    """A transfer session was attached to the fluid executor."""

    session: str = unit_field("-", "session name", "")
    concurrency: int = unit_field("-", "initial worker count", 0)
    parallelism: int = unit_field("-", "initial streams per worker", 1)


@event("session.params", emitted_by="repro.transfer.session.TransferSession.set_params")
class SessionParamsChange(TraceEvent):
    """A session's parameter vector actually changed."""

    session: str = unit_field("-", "session being retuned", "")
    concurrency: int = unit_field("-", "new worker count", 0)
    parallelism: int = unit_field("-", "new streams per worker", 1)
    pipelining: int = unit_field("-", "new pipelining depth", 1)


@event("session.complete", emitted_by="repro.transfer.session.TransferSession._finish_step")
class SessionComplete(TraceEvent):
    """A session delivered its whole dataset."""

    session: str = unit_field("-", "completed session", "")
    good_bytes: float = unit_field("bytes", "goodput bytes delivered in total", 0.0)
    lost_bytes: float = unit_field("bytes", "bytes lost/retransmitted in total", 0.0)
    files: int = unit_field("-", "files delivered", 0)


@event("worker.crash", emitted_by="repro.transfer.session.TransferSession.crash_worker")
class WorkerCrashed(TraceEvent):
    """A worker process died (injected fault or watchdog kill)."""

    session: str = unit_field("-", "session owning the worker", "")
    worker: int = unit_field("-", "worker slot index", 0)
    requeued: bool = unit_field("-", "True when an in-progress file was handed back", False)


@event("worker.stall", emitted_by="repro.transfer.session.TransferSession.stall_worker")
class WorkerStalled(TraceEvent):
    """A worker was frozen by an injected stall (hung process)."""

    session: str = unit_field("-", "session owning the worker", "")
    worker: int = unit_field("-", "worker slot index", 0)
    duration_s: float = unit_field("s", "injected stall length", 0.0)


# ---------------------------------------------------------------------------
# Fault events.
# ---------------------------------------------------------------------------


@event("fault.inject", emitted_by="repro.faults.injector.FaultInjector._record")
class FaultInjected(TraceEvent):
    """A planned fault took effect (outage, burst, brownout, crash...)."""

    kind: str = unit_field("-", "fault kind (outage, loss-burst, brownout, ...)", "")
    target: str = unit_field("-", "link/host/session/job the fault hit", "")
    detail: str = unit_field("-", "free-form magnitude/duration description", "")


@event("fault.recover", emitted_by="repro.faults.injector.FaultInjector._record")
class FaultRecovered(TraceEvent):
    """A fault's scheduled recovery restored the target."""

    kind: str = unit_field("-", "fault kind that ended", "")
    target: str = unit_field("-", "link/host restored", "")


@event("fault.skip", emitted_by="repro.faults.injector.FaultInjector._record")
class FaultSkipped(TraceEvent):
    """A planned fault found no eligible target and was skipped."""

    kind: str = unit_field("-", "fault kind that was skipped", "")
    target: str = unit_field("-", "requested target spec", "")
    reason: str = unit_field("-", "why no target was eligible", "")


# ---------------------------------------------------------------------------
# Service / job lifecycle events.
# ---------------------------------------------------------------------------


@event("job.submit", emitted_by="repro.service.service.FalconService.submit")
class JobSubmitted(TraceEvent):
    """A transfer job entered the service queue."""

    job: str = unit_field("-", "job name", "")
    job_id: int = unit_field("-", "service-assigned job id", 0)


@event("job.state", emitted_by="repro.service.service.FalconService._transition")
class JobStateChanged(TraceEvent):
    """A job moved between lifecycle states."""

    job: str = unit_field("-", "job name", "")
    job_id: int = unit_field("-", "service-assigned job id", 0)
    old_state: str = unit_field("-", "state before the transition", "")
    new_state: str = unit_field("-", "state after the transition", "")


@event("job.restart", emitted_by="repro.service.service.FalconService.crash_job")
class JobRestarted(TraceEvent):
    """A crashed job relaunched, resuming its remaining files."""

    job: str = unit_field("-", "job name", "")
    restart: int = unit_field("-", "restart ordinal (1 = first relaunch)", 0)
    max_restarts: int = unit_field("-", "restart budget from the retry policy", 0)


@event("job.retry", emitted_by="repro.service.service.FalconService._file_failed")
class RetryScheduled(TraceEvent):
    """A failed file got a backoff timer before re-entering the queue."""

    job: str = unit_field("-", "job the file belongs to", "")
    attempt: int = unit_field("-", "failed attempts so far (the next is attempt+1)", 0)
    delay_s: float = unit_field("s", "backoff delay before the requeue", 0.0)
    size_bytes: float = unit_field("bytes", "size of the file being retried", 0.0)


@event("job.watchdog_kill", emitted_by="repro.service.service.FalconService._schedule_watchdog")
class WatchdogKilled(TraceEvent):
    """The no-progress watchdog killed a stuck worker."""

    job: str = unit_field("-", "job whose worker was killed", "")
    worker: int = unit_field("-", "worker slot index", 0)


# ---------------------------------------------------------------------------
# Control-plane events (admission, scheduling, overload).
# ---------------------------------------------------------------------------


@event("job.admit", emitted_by="repro.service.control.ControlPlane.submit")
class JobAdmitted(TraceEvent):
    """The control plane accepted a job into a tenant queue."""

    tenant: str = unit_field("-", "submitting tenant", "")
    job: str = unit_field("-", "job name", "")
    job_id: int = unit_field("-", "service-assigned job id", 0)
    priority: str = unit_field("-", "scheduling class (best-effort/normal/high)", "")
    queue_depth: int = unit_field("-", "control-plane queue depth after admission", 0)


@event("job.shed", emitted_by="repro.service.control.ControlPlane._shed")
class JobShed(TraceEvent):
    """The control plane rejected a job with a typed overload reason."""

    tenant: str = unit_field("-", "submitting tenant", "")
    job: str = unit_field("-", "job name", "")
    job_id: int = unit_field("-", "service-assigned job id", 0)
    priority: str = unit_field("-", "scheduling class of the shed job", "")
    reason: str = unit_field(
        "-", "typed cause: quota / queue-full / breaker-open / degraded", ""
    )


@event("quota.exhausted", emitted_by="repro.service.control.ControlPlane.submit")
class QuotaExhausted(TraceEvent):
    """A tenant's admission token bucket ran dry at submit time."""

    tenant: str = unit_field("-", "tenant whose bucket ran dry", "")
    job: str = unit_field("-", "job that was refused a token", "")
    rate: float = unit_field("jobs/s", "sustained refill rate of the bucket", 0.0)


@event("breaker.state", emitted_by="repro.service.control.ControlPlane._breaker")
class BreakerStateChanged(TraceEvent):
    """A per-testbed circuit breaker changed state."""

    testbed: str = unit_field("-", "testbed the breaker guards", "")
    old_state: str = unit_field("-", "state before (closed/open/half-open)", "")
    new_state: str = unit_field("-", "state after (closed/open/half-open)", "")
    failures: int = unit_field("-", "consecutive failures on this testbed", 0)


@event("job.route", emitted_by="repro.service.sharding.ShardedControlPlane.submit")
class JobRouted(TraceEvent):
    """An admitted job was placed on a data-plane shard.

    Emitted only by multi-shard planes (a 1-shard plane stays
    trace-identical to the unsharded control plane, so routing a
    single shard is not an event).  ``job_id`` is unique per shard
    service, not globally — pair it with ``shard``.
    """

    tenant: str = unit_field("-", "submitting tenant", "")
    job: str = unit_field("-", "job name", "")
    job_id: int = unit_field("-", "shard-service job id (unique per shard)", 0)
    shard: str = unit_field("-", "data-plane shard the job landed on", "")
    policy: str = unit_field("-", "placement policy (by_testbed / by_tenant / least_loaded)", "")
    queue_depth: int = unit_field("-", "chosen shard's queue depth after admission", 0)


@event("shard.saturated", emitted_by="repro.service.sharding.ShardedControlPlane.submit")
class ShardSaturated(TraceEvent):
    """A job's home shard refused it at admission time.

    ``rerouted_to`` names the shard that took the job instead when
    rebalance-on-shed found one with room; empty means every candidate
    refused and the job was shed on its home shard.
    """

    shard: str = unit_field("-", "saturated home shard", "")
    reason: str = unit_field("-", "refusal: breaker-open / degraded / queue-full", "")
    queue_depth: int = unit_field("-", "home shard's queue depth at refusal", 0)
    rerouted_to: str = unit_field("-", "shard that absorbed the job ('' = shed)", "")


@event("job.preempt", emitted_by="repro.service.control.ControlPlane._preempt_one")
class JobPreempted(TraceEvent):
    """A running job was suspended for a higher-priority arrival."""

    tenant: str = unit_field("-", "tenant of the preempted job", "")
    job: str = unit_field("-", "preempted job name", "")
    job_id: int = unit_field("-", "service-assigned job id", 0)
    priority: str = unit_field("-", "class of the preempted job", "")
    by_priority: str = unit_field("-", "class of the arrival that displaced it", "")
