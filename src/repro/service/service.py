"""The Falcon transfer service: job queue + per-job agents.

Jobs run at most ``max_active`` at a time per service instance; excess
submissions wait in FIFO order.  Each running job gets its own Falcon
agent (all sharing the same utility, as the equilibrium argument
requires), so concurrent jobs on the same testbed converge to fair
shares automatically — the service needs no bandwidth broker.

Fault tolerance is opt-in via ``fault_policy``:

* a crashed worker's file re-enters the queue after a capped
  exponential backoff with deterministic jitter; a file exhausting its
  attempt budget fails the whole job;
* a no-progress watchdog kills workers that hold a file without moving
  a byte for ``stall_timeout`` seconds (hung process, not dead — exit
  codes never fire);
* a crashed *job* is restarted up to ``max_restarts`` times, resuming
  from the files its previous incarnation had not delivered (same
  :class:`~repro.transfer.dataset.FileQueue` object, so progress and
  pending retry timers survive the restart);
* with retries exhausted (or ``fault_policy=None``) the job lands in
  ``FAILED`` with a partial report instead of hanging forever.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.agent import FalconAgent
from repro.core.controller import attach_agent
from repro.core.gradient_descent import GradientDescent
from repro.core.optimizer import ConcurrencyOptimizer
from repro.core.utility import NonlinearPenaltyUtility, UtilityFunction
from repro.obs.events import (
    JobRestarted,
    JobStateChanged,
    JobSubmitted,
    RetryScheduled,
    WatchdogKilled,
)
from repro.obs.tracer import current_tracer
from repro.service.jobs import JobState, Priority, TransferJob, TransferReport
from repro.service.policy import RetryPolicy
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngStreams
from repro.testbeds.base import Testbed
from repro.transfer.dataset import Dataset, FileQueue
from repro.transfer.executor import FluidTransferNetwork

OptimizerFactory = Callable[[np.random.Generator], ConcurrencyOptimizer]

#: Zero carry-over stats for a job's first incarnation.
_ZERO_CARRY = {
    "good": 0.0,
    "lost": 0.0,
    "files": 0,
    "decisions": 0,
    "process_seconds": 0.0,
    "crashes": 0,
    "stalled": 0.0,
}


def _default_optimizer(rng: np.random.Generator) -> ConcurrencyOptimizer:
    return GradientDescent(lo=1, hi=64)


@dataclass
class FalconService:
    """Accepts, schedules, tunes, and reports transfer jobs.

    Parameters
    ----------
    engine, network:
        The simulation substrate to run on.
    max_active:
        Concurrent-job limit; further submissions queue FIFO.
    optimizer_factory:
        Builds a fresh search algorithm per job.
    utility:
        Shared utility function (one function for all jobs — required
        for the fair-equilibrium guarantee).
    seed:
        Root seed for per-job measurement-jitter streams.
    fault_policy:
        Retry/watchdog/restart behaviour; ``None`` reproduces the
        legacy service exactly (no retries, crashes are fatal).
    on_terminal:
        External-scheduler hook: called with each job the moment it
        reaches a terminal state (COMPLETED/FAILED/CANCELLED/REJECTED),
        after the internal FIFO dispatch has run.  ``None`` (the
        default) keeps the service fully self-contained — the
        control plane (:class:`repro.service.control.ControlPlane`)
        installs itself here.
    """

    engine: SimulationEngine
    network: FluidTransferNetwork
    max_active: int = 4
    optimizer_factory: OptimizerFactory = _default_optimizer
    utility: UtilityFunction = field(default_factory=NonlinearPenaltyUtility)
    seed: int = 0
    fault_policy: RetryPolicy | None = None
    on_terminal: Callable[[TransferJob], None] | None = None

    _jobs: list[TransferJob] = field(default_factory=list)
    _queue: deque = field(default_factory=deque)
    _active: list[TransferJob] = field(default_factory=list)
    _streams: RngStreams = field(init=False)
    _next_id: int = 1

    def __post_init__(self) -> None:
        if self.max_active < 1:
            raise ValueError("max_active must be >= 1")
        self._streams = RngStreams(self.seed)

    @property
    def _policy_active(self) -> bool:
        return self.fault_policy is not None and self.fault_policy.enabled

    # -- submission ------------------------------------------------------------

    def register(
        self,
        testbed: Testbed,
        dataset: Dataset,
        name: str | None = None,
        tenant: str | None = None,
        priority: Priority = Priority.NORMAL,
    ) -> TransferJob:
        """Create and record a job without queueing it.

        This is the control-plane entry point: an external scheduler
        owns admission and ordering, so the job must exist (id, events,
        ``JobSubmitted`` record) before any admission decision — a shed
        job still has a full audit trail.  Plain ``submit()`` is
        ``register()`` + FIFO enqueue.
        """
        job = TransferJob(
            job_id=self._next_id,
            name=name or f"job-{self._next_id}",
            testbed=testbed,
            dataset=dataset,
            submitted_at=self.engine.now,
            tenant=tenant,
            priority=Priority(priority),
        )
        self._next_id += 1
        self._jobs.append(job)
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit(JobSubmitted, job=job.name, job_id=job.job_id)
        return job

    def submit(self, testbed: Testbed, dataset: Dataset, name: str | None = None) -> TransferJob:
        """Queue a transfer; it starts when a slot is free."""
        job = self.register(testbed, dataset, name=name)
        self._queue.append(job)
        self._dispatch()
        return job

    # -- external-scheduler surface ---------------------------------------------
    #
    # The control plane (repro.service.control) owns admission and
    # ordering; these methods let it drive the job lifecycle directly
    # without going through the internal FIFO.  None of them touch
    # ``_queue``, so plain ``submit()`` traffic is unaffected.

    @property
    def has_slot(self) -> bool:
        """True while another job could start right now."""
        return len(self._active) < self.max_active

    def start_job(self, job: TransferJob) -> None:
        """Start a registered job immediately (control-plane dispatch).

        The job must be QUEUED and a slot free.  A previously preempted
        job resumes from its stashed file queue, so files it already
        delivered are not moved again.
        """
        if job.state is not JobState.QUEUED:
            raise ValueError(f"cannot start {job}: not queued")
        if not self.has_slot:
            raise ValueError(f"cannot start {job}: no free slot")
        queue = job._extras.pop("resume_queue", None)
        self._transition(job, JobState.RUNNING)
        if job.started_at is None:
            job.started_at = self.engine.now
        self._active.append(job)
        self._launch(job, queue=queue)

    def reject(self, job: TransferJob, reason: str) -> None:
        """Shed a queued job with a typed reason (control-plane overload)."""
        if job.state is not JobState.QUEUED:
            raise ValueError(f"cannot reject {job}: not queued")
        if job in self._queue:
            self._queue.remove(job)
        job._extras.pop("watchdog", None)
        job.rejection_reason = reason
        job.note(self.engine.now, "rejected", reason)
        self._transition(job, JobState.REJECTED)
        job.finished_at = self.engine.now
        self._notify_terminal(job)

    def preempt(self, job: TransferJob) -> None:
        """Suspend a running job so a higher-priority one can take the slot.

        Teardown matches a job crash — in-flight files return to the
        queue with progress kept — but the job transitions back to
        QUEUED with its file queue stashed, so a later
        :meth:`start_job` resumes where it stopped.  Does *not*
        dispatch: the caller is about to start its own pick.
        """
        if job.state is not JobState.RUNNING:
            raise ValueError(f"cannot preempt {job}: not running")
        session = job._extras["session"]
        agent: FalconAgent = job._extras["agent"]
        self._teardown_session(session)
        self._accumulate_carry(job, session, agent)
        job.preemptions += 1
        job._extras["resume_queue"] = session.queue
        job._extras.pop("watchdog", None)
        job._extras.pop("watch", None)
        job.note(self.engine.now, "preempted", f"#{job.preemptions}")
        self._transition(job, JobState.QUEUED)
        self._active.remove(job)

    def cancel(self, job: TransferJob) -> None:
        """Cancel a queued or running job.

        Cancelling a running job tears its workers down the same way a
        concurrency decrease does — in-flight files return to the queue
        with their progress kept — and attaches a *partial*
        :class:`TransferReport` covering the work done so far.
        """
        if job.state is JobState.QUEUED:
            # A control-plane job waits in the control plane's own
            # queues, not in ``_queue``; tolerate either home.
            if job in self._queue:
                self._queue.remove(job)
            job._extras.pop("watchdog", None)
            self._transition(job, JobState.CANCELLED)
            job.finished_at = self.engine.now
            self._notify_terminal(job)
        elif job.state is JobState.RUNNING:
            session = job._extras["session"]
            agent: FalconAgent = job._extras["agent"]
            self._teardown_session(session)
            job._extras.pop("watchdog", None)
            self._transition(job, JobState.CANCELLED)
            job.finished_at = self.engine.now
            job.report = self._partial_report(job, session, agent, completed=False)
            self._active.remove(job)
            self._dispatch()
            self._notify_terminal(job)

    def crash_job(self, job: TransferJob) -> None:
        """Kill a running job's whole process tree (fault injection).

        With a retry policy and restarts left, the job relaunches and
        *resumes*: the replacement session consumes the crashed one's
        file queue, so already-delivered files are not moved again.
        Otherwise the job fails with a partial report.
        """
        if job.state is not JobState.RUNNING:
            return
        now = self.engine.now
        session = job._extras["session"]
        agent: FalconAgent = job._extras["agent"]
        self._teardown_session(session)
        policy = self.fault_policy
        if self._policy_active and job.restarts < policy.max_restarts:
            job.restarts += 1
            job.note(now, "restart", f"{job.restarts}/{policy.max_restarts}")
            tracer = current_tracer()
            if tracer is not None:
                tracer.emit(
                    JobRestarted,
                    job=job.name,
                    restart=job.restarts,
                    max_restarts=policy.max_restarts,
                )
            self._accumulate_carry(job, session, agent)
            self._launch(job, queue=session.queue)
        else:
            self._fail(job, reason="job crashed (no restarts left)")

    # -- introspection ----------------------------------------------------------

    @property
    def jobs(self) -> list[TransferJob]:
        """All jobs ever submitted, in submission order."""
        return list(self._jobs)

    def queued(self) -> list[TransferJob]:
        """Jobs waiting for a slot."""
        return list(self._queue)

    def running(self) -> list[TransferJob]:
        """Jobs currently transferring."""
        return list(self._active)

    # -- internals ----------------------------------------------------------------

    def _dispatch(self) -> None:
        while self._queue and len(self._active) < self.max_active:
            job = self._queue.popleft()
            self._start(job)

    def _transition(self, job: TransferJob, state: JobState) -> None:
        """Move ``job`` to ``state``, mirroring the change to the tracer."""
        old = job.state
        job.state = state
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit(
                JobStateChanged,
                job=job.name,
                job_id=job.job_id,
                old_state=old.value,
                new_state=state.value,
            )
    def _start(self, job: TransferJob) -> None:
        self._transition(job, JobState.RUNNING)
        job.started_at = self.engine.now
        self._active.append(job)
        self._launch(job)

    def _launch(self, job: TransferJob, queue: FileQueue | None = None) -> None:
        """(Re)create the session+agent pair for a running job.

        ``queue`` carries the remaining files of a crashed incarnation
        into the replacement session (job resume).
        """
        suffix = f"+r{job.restarts}" if job.restarts else ""
        if job.preemptions:
            suffix += f"+p{job.preemptions}"
        session = job.testbed.new_session(
            job.dataset, name=f"{job.name}{suffix}", queue=queue
        )
        rng = self._streams.get(f"job/{job.job_id}")
        agent = FalconAgent(
            session=session,
            optimizer=self.optimizer_factory(rng),
            utility=self.utility,
            rng=rng,
        )
        job._extras["session"] = session
        job._extras["agent"] = agent
        session.on_complete = lambda s, j=job: self._finish(j)
        if self._policy_active:
            session.on_file_failure = (
                lambda size, done, attempts, j=job: self._file_failed(
                    j, size, done, attempts
                )
            )
            if "watchdog" not in job._extras:
                self._schedule_watchdog(job)
        self.network.add_session(session)
        # De-phase decision clocks across jobs (see experiments.common).
        interval = job.testbed.sample_interval * (1.0 + float(rng.uniform(-0.08, 0.08)))
        attach_agent(self.engine, agent, interval=interval)

    def _teardown_session(self, session) -> None:
        """Detach and silence a session whose job is ending or restarting.

        Worker teardown pushes in-flight files back into the queue with
        progress kept (restartable-transfer semantics) — which is
        exactly what makes the queue resumable by a successor session.
        """
        session.on_complete = None
        session.on_file_failure = None
        session._resize_workers(0)
        session.finished_at = self.engine.now
        if session in self.network.sessions:
            self.network.remove_session(session)

    # -- retry path -----------------------------------------------------------

    def _file_failed(self, job: TransferJob, size: float, done: float, attempts: int) -> None:
        """A worker died holding a file: back off and requeue, or give up.

        ``attempts`` counts failures *before* this one.
        """
        if job.state is not JobState.RUNNING:
            return
        now = self.engine.now
        policy = self.fault_policy
        failed = attempts + 1
        if failed >= policy.max_attempts:
            job.failed_files += 1
            job.note(now, "file-failed", f"{failed} attempts on {size:.0f}B file")
            self._fail(job, reason=f"file exhausted {failed} attempts")
            return
        u = float(self._streams.get(f"job/{job.job_id}/faults").random())
        delay = policy.backoff(failed, u)
        job.retries += 1
        job.note(now, "retry", f"attempt {failed + 1} in {delay:.1f}s")
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit(
                RetryScheduled, job=job.name, attempt=failed, delay_s=delay, size_bytes=size
            )
        queue = job._extras["session"].queue
        # The hold keeps the file counted as remaining work so the
        # session cannot declare completion while the timer runs.  The
        # queue object survives restarts, so the requeue lands in the
        # live incarnation even if the job crashes meanwhile.
        queue.hold()

        def requeue() -> None:
            # Inert after a terminal transition: the job's report is
            # sealed and nothing will ever consume the queue again, so
            # the callback must not resurrect work.  A *preempted* job
            # is QUEUED (not terminal) and its queue is stashed for
            # resume — the retry must still land there.
            if job.state.is_terminal:
                return
            queue.release()
            queue.push_back(size, done, failed)

        self.engine.schedule_in(delay, requeue, name=f"retry:{job.name}")

    # -- watchdog ---------------------------------------------------------------

    def _schedule_watchdog(self, job: TransferJob):
        """Periodic no-progress check; kills workers stuck past the timeout.

        The tick re-reads the session from the job's extras each time,
        so one watchdog follows the job across restarts.  It retires by
        token: the tick keeps running only while *this* arming's token
        is still installed in ``job._extras["watchdog"]`` and the job
        is RUNNING.  Terminal transitions and preemption pop the key,
        so a pending tick after either is inert — and a preempted job
        that resumes gets a *fresh* watchdog without ever having two
        live at once.
        """
        policy = self.fault_policy
        token = object()
        job._extras["watchdog"] = token

        def tick() -> None:
            if job._extras.get("watchdog") is not token:
                raise StopIteration
            if job.state is not JobState.RUNNING:
                raise StopIteration
            session = job._extras["session"]
            watch = job._extras.get("watch")
            if watch is None or watch["session"] is not session:
                # New incarnation: re-baseline.
                job._extras["watch"] = {
                    "session": session,
                    "done": session.file_done.copy(),
                    "size": session.file_size.copy(),
                    "streak": np.zeros(session.file_done.size),
                }
                return
            # Progress = any change to the (file, bytes-done) pair —
            # completions swap the file, so they count as progress even
            # though bytes-done can shrink.  Pool resizes are
            # prefix-stable, so surviving workers carry their streaks;
            # new slots start fresh (counted as "moved").
            n = session.file_done.size
            m = min(n, watch["streak"].size)
            moved = np.ones(n, dtype=bool)
            moved[:m] = (session.file_done[:m] != watch["done"][:m]) | (
                session.file_size[:m] != watch["size"][:m]
            )
            carried = np.zeros(n)
            carried[:m] = watch["streak"][:m]
            streak = np.where(
                session.has_file & ~moved,
                carried + policy.watchdog_interval,
                0.0,
            )
            watch["done"] = session.file_done.copy()
            watch["size"] = session.file_size.copy()
            watch["streak"] = streak
            for w in np.flatnonzero(streak >= policy.stall_timeout).tolist():
                # A kill can cascade into job failure mid-loop.
                if job.state is not JobState.RUNNING:
                    break
                if w >= session.rates.size or not session.has_file[w]:
                    continue
                job.note(self.engine.now, "watchdog-kill", f"worker {w}")
                tracer = current_tracer()
                if tracer is not None:
                    tracer.emit(WatchdogKilled, job=job.name, worker=w)
                streak[w] = 0.0
                session.crash_worker(w)

        self.engine.schedule_every(
            policy.watchdog_interval, tick, name=f"watchdog:{job.name}"
        )

    # -- completion / failure ----------------------------------------------------

    def _finish(self, job: TransferJob) -> None:
        session = job._extras["session"]
        agent: FalconAgent = job._extras["agent"]
        job._extras.pop("watchdog", None)
        self._transition(job, JobState.COMPLETED)
        job.finished_at = self.engine.now
        job.report = self._partial_report(job, session, agent, completed=True)
        if job in self._active:
            self._active.remove(job)
        self._dispatch()
        self._notify_terminal(job)

    def _fail(self, job: TransferJob, reason: str = "") -> None:
        """Terminal failure: partial report, slot freed, no hang."""
        if job.state is not JobState.RUNNING:
            return
        session = job._extras["session"]
        agent: FalconAgent = job._extras["agent"]
        if session.finished_at is None:
            self._teardown_session(session)
        job._extras.pop("watchdog", None)
        self._transition(job, JobState.FAILED)
        job.finished_at = self.engine.now
        job.note(self.engine.now, "failed", reason)
        job.report = self._partial_report(job, session, agent, completed=False)
        if job in self._active:
            self._active.remove(job)
        self._dispatch()
        self._notify_terminal(job)

    def _notify_terminal(self, job: TransferJob) -> None:
        """Tell the external scheduler, if any, that ``job`` just ended."""
        if self.on_terminal is not None:
            self.on_terminal(job)

    # -- reporting ----------------------------------------------------------------

    def _accumulate_carry(self, job: TransferJob, session, agent: FalconAgent) -> None:
        """Bank a dead incarnation's stats so reports span restarts."""
        carry = job._extras.setdefault("carry", dict(_ZERO_CARRY))
        carry["good"] += session.total_good_bytes
        carry["lost"] += session.total_lost_bytes
        carry["files"] += session.files_completed
        carry["decisions"] += len(agent.history)
        carry["process_seconds"] += session.process_seconds
        carry["crashes"] += session.worker_crashes
        carry["stalled"] += session.stalled_seconds

    def _partial_report(
        self, job: TransferJob, session, agent: FalconAgent, completed: bool
    ) -> TransferReport:
        """Report covering whatever the job moved up to now (all incarnations)."""
        carry = job._extras.get("carry", _ZERO_CARRY)
        duration = max((job.finished_at or 0.0) - (job.started_at or 0.0), 1e-9)
        good = carry["good"] + session.total_good_bytes
        lost = carry["lost"] + session.total_lost_bytes
        sent = good + lost
        return TransferReport(
            bytes_moved=good,
            duration=duration,
            mean_throughput_bps=good * 8.0 / duration,
            files=carry["files"] + session.files_completed,
            decisions=carry["decisions"] + len(agent.history),
            final_concurrency=session.params.concurrency,
            loss_fraction=lost / sent if sent > 0 else 0.0,
            process_seconds=carry["process_seconds"] + session.process_seconds,
            completed=completed,
            retries=job.retries,
            restarts=job.restarts,
            worker_crashes=carry["crashes"] + session.worker_crashes,
            stalled_seconds=carry["stalled"] + session.stalled_seconds,
            failed_files=job.failed_files,
            preemptions=job.preemptions,
        )
