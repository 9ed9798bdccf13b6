"""Compiling fault plans into simulation-engine callbacks.

The :class:`FaultInjector` owns the mutation side of fault injection:
at each event's timestamp it flips the targeted object's fault state
(link availability, storage rates, worker arrays, job lifecycle) and
schedules the matching recovery.  It is careful about three simulator
invariants:

* **topology cache** — outages and brownouts change allocation inputs
  that the executor caches, so every such transition calls
  ``network.invalidate_topology()``; loss bursts change only link loss
  state, so they bump the executor's epoch-keyed equilibrium cache via
  ``network.note_link_fault()`` instead;
* **sample validity** — an outage makes throughput samples meaningless,
  so the monitors of affected sessions are tainted for the outage
  window (plus the straddling interval) and the agent skips them;
* **determinism** — target picks draw only from the dedicated chaos
  stream, and a fault that finds no target logs a skip instead of
  consuming extra draws elsewhere.

Every action and recovery is appended to :attr:`FaultInjector.log` (and
mirrored to a trace recorder when one is attached), giving experiments
and tests a ground-truth record of what was injected when.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.faults.plan import (
    FaultPlan,
    JobCrash,
    LinkOutage,
    LossBurst,
    StorageBrownout,
    TransferStall,
    WorkerCrash,
)
from repro.faults.rng import ChaosRng
from repro.network.link import Link
from repro.obs.events import FaultInjected, FaultRecovered, FaultSkipped
from repro.obs.tracer import current_tracer
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngStreams
from repro.transfer.executor import FluidTransferNetwork
from repro.transfer.session import TransferSession

if TYPE_CHECKING:
    from repro.analysis.trace import TraceRecorder
    from repro.hosts.dtn import DataTransferNode
    from repro.service.service import FalconService


@dataclass(frozen=True)
class FaultRecord:
    """One injected action (or recovery, or skip) for the audit log."""

    time: float
    kind: str
    target: str
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tail = f" ({self.detail})" if self.detail else ""
        return f"[{self.time:8.2f}s] {self.kind}: {self.target}{tail}"


class FaultInjector:
    """Schedules a :class:`FaultPlan` onto a simulation.

    Parameters
    ----------
    engine, network:
        The simulation substrate faults act on.
    plan:
        What to inject and when.
    streams:
        Stream family the chaos stream is carved from; defaults to a
        fresh seed-0 family (fine for tests, but experiments should
        pass their own so the whole run shares one root seed).
    service:
        Required only for :class:`~repro.faults.plan.JobCrash` events.
    recorder:
        Optional trace recorder; fault records are mirrored into its
        annotation channel for plotting alongside throughput traces.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        network: FluidTransferNetwork,
        plan: FaultPlan,
        streams: RngStreams | None = None,
        service: Optional["FalconService"] = None,
        recorder: Optional["TraceRecorder"] = None,
    ) -> None:
        self.engine = engine
        self.network = network
        self.plan = plan
        self.service = service
        self.recorder = recorder
        # repro: lint-ok[F011]: seed-0 fallback for standalone use; real runs
        # pass the experiment's RngStreams and golden tests pin this stream.
        self.rng = ChaosRng(streams if streams is not None else RngStreams(0))
        self.log: list[FaultRecord] = []
        self._armed = False

    # -- arming ---------------------------------------------------------------

    def arm(self) -> "FaultInjector":
        """Schedule every planned event; returns self for chaining."""
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        handlers = {
            LinkOutage: self._begin_outage,
            LossBurst: self._begin_burst,
            StorageBrownout: self._begin_brownout,
            WorkerCrash: self._worker_crash,
            TransferStall: self._transfer_stall,
            JobCrash: self._job_crash,
        }
        for ev in self.plan:
            handler = handlers[type(ev)]
            self.engine.schedule_at(
                ev.at, lambda ev=ev, h=handler: h(ev), name=f"fault:{ev.kind}"
            )
        return self

    # -- logging --------------------------------------------------------------

    def _record(self, kind: str, target: str, detail: str = "") -> None:
        rec = FaultRecord(time=self.engine.now, kind=kind, target=target, detail=detail)
        self.log.append(rec)
        if self.recorder is not None:
            self.recorder.annotate(rec.time, rec.kind, f"{rec.target} {rec.detail}".strip())
        tracer = current_tracer()
        if tracer is not None:
            if kind.endswith("-skip"):
                tracer.emit(FaultSkipped, kind=kind[:-5], target=target, reason=detail)
            elif kind.endswith("-end"):
                tracer.emit(FaultRecovered, kind=kind[:-4], target=target)
            else:
                tracer.emit(FaultInjected, kind=kind, target=target, detail=detail)
    def records(self, kind: str | None = None) -> list[FaultRecord]:
        """The audit log, optionally filtered by kind."""
        if kind is None:
            return list(self.log)
        return [r for r in self.log if r.kind == kind]

    # -- target resolution -----------------------------------------------------

    def _links(self) -> list[Link]:
        seen: set[int] = set()
        links: list[Link] = []
        for s in self.network.sessions:
            for link in s.path:
                if id(link) not in seen:
                    seen.add(id(link))
                    links.append(link)
        return links

    def _resolve_link(self, name: str | None) -> Link | None:
        links = self._links()
        if not links:
            return None
        if name is None:
            # The bottleneck: where a real outage/flap is felt.
            return min(links, key=lambda link: link.capacity)
        for link in links:
            if link.name == name:
                return link
        return None

    def _resolve_session(self, name: str | None) -> TransferSession | None:
        candidates = self.network.active_sessions()
        if not candidates:
            return None
        if name is None:
            return self.rng.pick(candidates)
        for s in candidates:
            if s.name == name:
                return s
        return None

    def _resolve_host(self, spec: str) -> Optional["DataTransferNode"]:
        sessions = self.network.sessions
        if not sessions:
            return None
        if spec == "source":
            return sessions[0].source
        if spec == "destination":
            return sessions[0].destination
        for s in sessions:
            for host in (s.source, s.destination):
                if host.name == spec:
                    return host
        return None

    def _pick_worker(self, session: TransferSession, worker: int | None) -> int | None:
        if worker is not None:
            return worker if 0 <= worker < session.rates.size else None
        busy = [int(w) for w in session.has_file.nonzero()[0]]
        if busy:
            return self.rng.pick(busy)
        if session.rates.size:
            return self.rng.integers(session.rates.size)
        return None

    # -- handlers ---------------------------------------------------------------

    def _begin_outage(self, ev: LinkOutage) -> None:
        link = self._resolve_link(ev.link)
        if link is None or not link.available:
            self._record("outage-skip", ev.link or "<bottleneck>", "no eligible link")
            return
        link.available = False
        self.network.invalidate_topology()
        # Taint exactly the sessions crossing this link; recovery
        # un-taints the same monitors even if the sessions finished.
        monitors = [s.monitor for s in self.network.sessions if link in s.path.links]
        for m in monitors:
            m.begin_taint()
        self._record("outage", link.name, f"down {ev.duration:g}s")
        self.engine.schedule_in(
            ev.duration, lambda: self._end_outage(link, monitors), name="fault:outage-end"
        )

    def _end_outage(self, link: Link, monitors: list) -> None:
        link.available = True
        self.network.invalidate_topology()
        for m in monitors:
            m.end_taint()
        self._record("outage-end", link.name)

    def _begin_burst(self, ev: LossBurst) -> None:
        link = self._resolve_link(ev.link)
        if link is None:
            self._record("burst-skip", ev.link or "<bottleneck>", "no eligible link")
            return
        # Bursts stack additively; loss_rate clamps the sum at 1.0.
        # Loss changes don't touch capacities, so no topology rebuild —
        # but the executor's epoch-keyed equilibrium cache must see the
        # new fault state (losses are part of the cached pair).
        link.extra_loss += ev.loss
        self.network.note_link_fault()
        self._record("loss-burst", link.name, f"+{ev.loss:.1%} for {ev.duration:g}s")
        self.engine.schedule_in(
            ev.duration, lambda: self._end_burst(link, ev.loss), name="fault:burst-end"
        )

    def _end_burst(self, link: Link, loss: float) -> None:
        link.extra_loss = max(0.0, link.extra_loss - loss)
        self.network.note_link_fault()
        self._record("loss-burst-end", link.name)

    def _begin_brownout(self, ev: StorageBrownout) -> None:
        host = self._resolve_host(ev.host)
        if host is None:
            self._record("brownout-skip", ev.host, "no eligible host")
            return
        original = host.storage
        host.storage = dataclasses.replace(
            original,
            per_process_read_bps=original.per_process_read_bps * ev.factor,
            per_process_write_bps=original.per_process_write_bps * ev.factor,
            aggregate_read_bps=original.aggregate_read_bps * ev.factor,
            aggregate_write_bps=original.aggregate_write_bps * ev.factor,
        )
        self.network.invalidate_topology()
        self._record(
            "brownout", host.name, f"x{ev.factor:.2f} for {ev.duration:g}s"
        )
        self.engine.schedule_in(
            ev.duration,
            lambda: self._end_brownout(host, original),
            name="fault:brownout-end",
        )

    def _end_brownout(self, host: "DataTransferNode", original) -> None:
        host.storage = original
        self.network.invalidate_topology()
        self._record("brownout-end", host.name)

    def _worker_crash(self, ev: WorkerCrash) -> None:
        session = self._resolve_session(ev.session)
        if session is None:
            self._record("crash-skip", ev.session or "<any>", "no active session")
            return
        w = self._pick_worker(session, ev.worker)
        if w is None:
            self._record("crash-skip", session.name, "no worker to crash")
            return
        session.crash_worker(w)
        self._record("worker-crash", f"{session.name}#w{w}")

    def _transfer_stall(self, ev: TransferStall) -> None:
        session = self._resolve_session(ev.session)
        if session is None:
            self._record("stall-skip", ev.session or "<any>", "no active session")
            return
        w = self._pick_worker(session, ev.worker)
        if w is None:
            self._record("stall-skip", session.name, "no worker to stall")
            return
        session.stall_worker(w, ev.duration)
        self._record("stall", f"{session.name}#w{w}", f"{ev.duration:g}s")

    def _job_crash(self, ev: JobCrash) -> None:
        if self.service is None:
            self._record("job-crash-skip", "<service>", "no service attached")
            return
        running = self.service.running()
        if ev.job is not None:
            running = [j for j in running if j.job_id == ev.job]
        if not running:
            self._record("job-crash-skip", str(ev.job or "<any>"), "no running job")
            return
        job = min(running, key=lambda j: j.started_at or 0.0)
        self.service.crash_job(job)
        self._record("job-crash", job.name)
