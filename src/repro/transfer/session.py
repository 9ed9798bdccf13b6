"""A transfer session (one "transfer task" in the paper's vocabulary).

A session moves one dataset from a source DTN to a destination DTN over
a path, using:

* ``concurrency`` — number of worker processes, each moving one file at
  a time (file-level parallelism: concurrent I/O *and* network flows);
* ``parallelism`` — TCP streams per worker (network-only parallelism);
* ``pipelining`` — control-channel commands in flight, which amortises
  the per-file round trips that dominate lots-of-small-files transfers.

Worker lifecycle matches GridFTP semantics: raising concurrency spawns
processes (paying a startup delay of process creation plus connection
establishment — the paper's footnote 2); lowering it tears processes
down, and their in-progress files return to the queue with progress
kept (restartable transfers).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro.hosts.dtn import DataTransferNode
from repro.network.path import Path
from repro.obs.events import (
    SessionComplete,
    SessionParamsChange,
    WorkerCrashed,
    WorkerStalled,
)
from repro.obs.tracer import current_tracer
from repro.network.tcp import CUBIC, TcpModel
from repro.transfer.dataset import FileQueue
from repro.transfer.metrics import ThroughputMonitor

#: Process fork + data-channel establishment overhead, seconds.
WORKER_SPAWN_OVERHEAD = 0.3

#: Control-channel round trips per file without pipelining (STOR/RETR
#: command plus acknowledgement).
CONTROL_RTTS_PER_FILE = 2.0


@dataclass(frozen=True)
class TransferParams:
    """The tunable application-layer parameters (paper §1, §4.4)."""

    concurrency: int = 1
    parallelism: int = 1
    pipelining: int = 1

    def __post_init__(self) -> None:
        for name in ("concurrency", "parallelism", "pipelining"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
            # Coerce numpy integers (optimizer outputs) to built-in int so
            # trace events and cache-key encodings never see a np.int64
            # where JSON expects an int.
            if not isinstance(value, int):
                object.__setattr__(self, name, int(value))

    def with_(self, **kwargs) -> "TransferParams":
        """Copy with fields replaced."""
        return replace(self, **kwargs)

    @property
    def total_streams(self) -> int:
        """Network connections created: ``concurrency * parallelism``."""
        return self.concurrency * self.parallelism


class TransferSession:
    """One transfer task and its worker pool.

    Parameters
    ----------
    name:
        Label used in traces and reports.
    source, destination:
        End hosts.
    path:
        Network path from source to destination.
    queue:
        File queue to consume (see :meth:`Dataset.queue`).
    tcp:
        Transport model for this session's streams.
    params:
        Initial parameter values.
    """

    def __init__(
        self,
        name: str,
        source: DataTransferNode,
        destination: DataTransferNode,
        path: Path,
        queue: FileQueue,
        tcp: TcpModel = CUBIC,
        params: TransferParams = TransferParams(),
    ) -> None:
        self.name = name
        self.source = source
        self.destination = destination
        self.path = path
        self.queue = queue
        self.tcp = tcp
        self.params = params
        self.monitor = ThroughputMonitor()
        # Path is frozen, so its RTT is a constant for the session's
        # lifetime; cache it out of the per-step hot path.
        self._path_rtt = path.rtt
        # Set by the executor; invoked whenever worker count or stream
        # layout changes so it can invalidate its cached topology.
        self.on_topology_change: Optional[Callable[[], None]] = None
        # Set by the executor; invoked whenever a worker gains or loses
        # a file (assignment, queue exhaustion, crash) — the only
        # per-step state changes that move the demand-cap vector, and
        # therefore the executor's cached equilibrium allocation.
        self.on_demand_change: Optional[Callable[[], None]] = None

        # Per-worker state (parallel arrays).
        self.rates = np.zeros(0)  # current send rate, bps
        self.file_size = np.zeros(0)  # bytes of current file (0 = no file)
        self.file_done = np.zeros(0)  # bytes completed of current file
        self.gap_left = np.zeros(0)  # seconds of pause before sending resumes
        self.stall_left = np.zeros(0)  # seconds of injected stall (hung worker)
        self.attempts = np.zeros(0, dtype=np.intp)  # failed attempts of current file
        self.has_file = np.zeros(0, dtype=bool)

        self.total_good_bytes = 0.0
        self.total_lost_bytes = 0.0
        self.files_completed = 0
        self.process_seconds = 0.0
        self.current_loss = 0.0
        # Fault accounting (see repro.faults): crashes injected or forced
        # by the watchdog, stall seconds actually consumed, and files
        # sent back to the queue by a failure (not a parameter change).
        self.worker_crashes = 0
        self.files_requeued = 0
        self.stalled_seconds = 0.0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.on_complete: Optional[Callable[["TransferSession"], None]] = None
        #: When set, a crashed worker's in-progress file is handed to
        #: this callback ``(size, done, attempts)`` instead of being
        #: requeued immediately — the hook the service's retry/backoff
        #: policy attaches to.
        self.on_file_failure: Optional[Callable[[float, float, int], None]] = None

        self._resize_workers(params.concurrency)

    # -- parameter control ---------------------------------------------------

    @property
    def concurrency(self) -> int:
        """Current worker count."""
        return self.params.concurrency

    @property
    def parallelism(self) -> int:
        """Current streams per worker."""
        return self.params.parallelism

    @property
    def pipelining(self) -> int:
        """Current pipelining depth."""
        return self.params.pipelining

    def set_params(self, params: TransferParams) -> None:
        """Apply a new parameter vector (spawning/dropping workers)."""
        if params != self.params:
            tracer = current_tracer()
            if tracer is not None:
                tracer.emit(
                    SessionParamsChange,
                    session=self.name,
                    concurrency=params.concurrency,
                    parallelism=params.parallelism,
                    pipelining=params.pipelining,
                )
        if params.concurrency != self.params.concurrency:
            self._resize_workers(params.concurrency)
        if params.parallelism != self.params.parallelism:
            self._notify_topology_change()
        self.params = params

    def set_concurrency(self, n: int) -> None:
        """Convenience: change only the worker count."""
        self.set_params(self.params.with_(concurrency=int(n)))

    def _resize_workers(self, target: int) -> None:
        current = self.rates.size
        if target > current:
            extra = target - current
            self.rates = np.concatenate([self.rates, np.full(extra, self.tcp.initial_rate)])
            self.file_size = np.concatenate([self.file_size, np.zeros(extra)])
            self.file_done = np.concatenate([self.file_done, np.zeros(extra)])
            startup = WORKER_SPAWN_OVERHEAD + CONTROL_RTTS_PER_FILE * self._path_rtt
            self.gap_left = np.concatenate([self.gap_left, np.full(extra, startup)])
            self.stall_left = np.concatenate([self.stall_left, np.zeros(extra)])
            self.attempts = np.concatenate([self.attempts, np.zeros(extra, dtype=np.intp)])
            self.has_file = np.concatenate([self.has_file, np.zeros(extra, dtype=bool)])
            self.assign_files()
        elif target < current:
            for w in range(target, current):
                if self.has_file[w] and self.file_done[w] < self.file_size[w]:
                    # Teardown is not a failure: the attempt count rides
                    # along unchanged (restartable-transfer semantics).
                    self.queue.push_back(
                        float(self.file_size[w]),
                        float(self.file_done[w]),
                        int(self.attempts[w]),
                    )
            self.rates = self.rates[:target]
            self.file_size = self.file_size[:target]
            self.file_done = self.file_done[:target]
            self.gap_left = self.gap_left[:target]
            self.stall_left = self.stall_left[:target]
            self.attempts = self.attempts[:target]
            self.has_file = self.has_file[:target]
        if target != current:
            self._notify_topology_change()

    # -- batched state-store integration -------------------------------------

    def adopt_state(
        self,
        rates: np.ndarray,
        file_size: np.ndarray,
        file_done: np.ndarray,
        gap_left: np.ndarray,
        stall_left: np.ndarray,
        attempts: np.ndarray,
        has_file: np.ndarray,
    ) -> None:
        """Install externally owned arrays as this session's worker state.

        Called by :class:`repro.sim.batch.BatchStore` to hand the session
        views into the global contiguous arrays (and again with copies
        when the session detaches).  The arrays must describe the same
        worker count; values are taken as-is.
        """
        if rates.size != self.rates.size:
            raise ValueError(
                f"adopt_state: expected {self.rates.size} workers, got {rates.size}"
            )
        self.rates = rates
        self.file_size = file_size
        self.file_done = file_done
        self.gap_left = gap_left
        self.stall_left = stall_left
        self.attempts = attempts
        self.has_file = has_file

    # -- fault handling ------------------------------------------------------

    def crash_worker(self, w: int) -> None:
        """Kill worker ``w`` (process crash) and replace it.

        The in-progress file either goes to :attr:`on_file_failure`
        (service retry policy decides when/whether it re-enters the
        queue) or is requeued immediately with its progress kept and
        its attempt count bumped.  The replacement worker pays the full
        spawn overhead, exactly like a concurrency increase.
        """
        if w < 0 or w >= self.rates.size:
            return
        size, done = float(self.file_size[w]), float(self.file_done[w])
        attempts = int(self.attempts[w])
        had_file = bool(self.has_file[w])
        # A file whose bytes all arrived but whose completion the step
        # loop has not retired yet (done can round up to exactly size at
        # a step boundary) is *delivered*, not in-progress: a crash now
        # must count it completed, never drop or re-send it.
        finished = had_file and done >= size
        requeued = had_file and not finished
        self.worker_crashes += 1
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit(WorkerCrashed, session=self.name, worker=w, requeued=requeued)
        self.rates[w] = self.tcp.initial_rate
        self.file_size[w] = 0.0
        self.file_done[w] = 0.0
        self.gap_left[w] = WORKER_SPAWN_OVERHEAD + CONTROL_RTTS_PER_FILE * self._path_rtt
        self.stall_left[w] = 0.0
        self.attempts[w] = 0
        self.has_file[w] = False
        if had_file:
            self._notify_demand_change()
        if finished:
            self.files_completed += 1
        elif requeued:
            self.files_requeued += 1
            if self.on_file_failure is not None:
                self.on_file_failure(size, done, attempts)
            else:
                self.queue.push_back(size, done, attempts + 1)

    def stall_worker(self, w: int, duration: float) -> None:
        """Freeze worker ``w`` for ``duration`` seconds (hung process).

        A stalled worker keeps its file and its warm data channel but
        moves no bytes until the stall drains — the failure mode the
        service's no-progress watchdog exists to catch.
        """
        if w < 0 or w >= self.rates.size:
            return
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self.stall_left[w] += duration
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit(WorkerStalled, session=self.name, worker=w, duration_s=duration)
    def stalled_workers(self) -> np.ndarray:
        """Indices of workers currently inside an injected stall."""
        return np.flatnonzero(self.stall_left > 0.0)

    def _notify_topology_change(self) -> None:
        if self.on_topology_change is not None:
            self.on_topology_change()

    def _notify_demand_change(self) -> None:
        if self.on_demand_change is not None:
            self.on_demand_change()

    # -- file management -----------------------------------------------------

    def assign_files(self) -> None:
        """Hand queued files to idle workers."""
        assigned = False
        for w in (~self.has_file).nonzero()[0].tolist():
            item = self.queue.pop()
            if item is None:
                break
            self.file_size[w], self.file_done[w] = item
            self.attempts[w] = self.queue.last_attempts
            self.has_file[w] = True
            assigned = True
        if assigned:
            self._notify_demand_change()

    def per_file_gap(self) -> float:
        """Pause between consecutive files of one worker.

        Control-channel round trips are amortised by pipelining; file
        open/create latency at both file systems is not.
        """
        control = CONTROL_RTTS_PER_FILE * self._path_rtt / self.params.pipelining
        return control + self.source.storage.open_latency + self.destination.storage.open_latency

    # -- status ---------------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while the session still has work."""
        return self.finished_at is None

    @property
    def path_rtt(self) -> float:
        """End-to-end round-trip time of this session's path, seconds."""
        return self._path_rtt

    @property
    def instantaneous_rate(self) -> float:
        """Sum of current worker send rates, bps."""
        return float(self.rates.sum())

    def sending_mask(self) -> np.ndarray:
        """Workers currently transferring (have a file, no gap, no stall)."""
        return self.has_file & (self.gap_left <= 0.0) & (self.stall_left <= 0.0)

    # -- fluid step ------------------------------------------------------------

    def _finish_step(
        self,
        good_total: float,
        sent_total: float,
        dt: float,
        now: float,
        idle_workers: bool = True,
    ) -> None:
        """Per-step accounting after :class:`~repro.sim.batch.BatchStore`
        has moved this session's bytes.

        ``idle_workers`` lets the batched pass skip the assignment and
        completion scan for sessions whose workers all still hold a file
        (a no-op there, but one avoided numpy round trip per session per
        step at 256-session scale).  The assignment also waits for a
        :attr:`FileQueue.poppable` queue: on a drained queue it could
        only pop ``None``.
        """
        lost_total = sent_total - good_total
        self.monitor.record(good_total, sent_total, lost_total, dt)
        self.total_good_bytes += good_total
        self.total_lost_bytes += lost_total
        # Overhead accounting: every live worker is a process on both
        # end hosts for the duration of the step (the resource-cost
        # side of the paper's "minimal overhead" claim).
        self.process_seconds += 2 * self.rates.size * dt

        if not idle_workers:
            return
        if self.queue.poppable:
            self.assign_files()
        if self.queue.exhausted and not self.has_file.any() and self.finished_at is None:
            self.finished_at = now + dt
            tracer = current_tracer()
            if tracer is not None:
                tracer.emit(
                    SessionComplete,
                    t=self.finished_at,
                    session=self.name,
                    good_bytes=self.total_good_bytes,
                    lost_bytes=self.total_lost_bytes,
                    files=self.files_completed,
                )
            if self.on_complete is not None:
                self.on_complete(self)

    def _advance_worker(
        self, w: int, time_left: float, good_rate_Bps: float, goodput_factor: float
    ) -> tuple[float, float]:
        """Move one worker forward, cascading through file completions.

        Returns ``(good_bytes, sent_bytes)`` moved during the step.
        """
        if good_rate_Bps <= 1e-9:
            return 0.0, 0.0
        good = 0.0
        gap = self.per_file_gap()
        while time_left > 1e-12 and self.has_file[w]:
            need = self.file_size[w] - self.file_done[w]
            finish_time = need / good_rate_Bps
            if finish_time <= time_left:
                good += need
                self.file_done[w] = self.file_size[w]
                self.files_completed += 1
                time_left -= finish_time
                item = self.queue.pop()
                if item is None:
                    self.has_file[w] = False
                    self.file_size[w] = 0.0
                    self.file_done[w] = 0.0
                    self.attempts[w] = 0
                    self._notify_demand_change()
                    break
                self.file_size[w], self.file_done[w] = item
                self.attempts[w] = self.queue.last_attempts
                # The inter-file pause: spend it from this step's budget,
                # carry any remainder into gap_left for future steps.
                if gap >= time_left:
                    self.gap_left[w] += gap - time_left
                    time_left = 0.0
                else:
                    time_left -= gap
            else:
                moved = good_rate_Bps * time_left
                self.file_done[w] += moved
                good += moved
                time_left = 0.0
        sent = good / goodput_factor if goodput_factor > 0 else good
        return good, sent
