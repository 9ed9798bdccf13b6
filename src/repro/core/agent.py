"""The Falcon agent: utility + optimizer bound to one transfer task.

Each competing transfer runs its *own* agent (the paper's "each Falcon
agent will enter a regret minimization dynamics").  An agent wakes once
per sample interval, converts the interval's measurements to a utility
value, feeds the optimizer, and applies the proposed setting for the
next interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.optimizer import ConcurrencyOptimizer, MultiParamOptimizer, Observation
from repro.core.utility import NonlinearPenaltyUtility, UtilityFunction
from repro.obs.events import MonitorSampleTaken, OptimizerDecision, UtilityEvaluated
from repro.obs.tracer import current_tracer
from repro.transfer.session import TransferParams, TransferSession


@dataclass(frozen=True)
class DecisionRecord:
    """One row of an agent's decision history.

    Attributes
    ----------
    time:
        Simulation time at which the decision was made (end of the
        evaluated interval).
    params:
        Setting that was evaluated during the interval.
    throughput_bps / loss_rate:
        Measured (jittered) interval performance.
    utility:
        Utility assigned to the interval.
    next_params:
        Setting chosen for the following interval.
    """

    time: float
    params: TransferParams
    throughput_bps: float
    loss_rate: float
    utility: float
    next_params: TransferParams


@dataclass
class FalconAgent:
    """Online tuner for one transfer session.

    Parameters
    ----------
    session:
        The transfer this agent controls.
    optimizer:
        A single-parameter (:class:`ConcurrencyOptimizer`) or
        multi-parameter (:class:`MultiParamOptimizer`) search.
    utility:
        Scoring function; all competing agents must share the same one
        for the equilibrium guarantee to hold.
    jitter:
        Measurement-noise level passed to the monitor.
    rng:
        Random stream for measurement jitter.
    """

    session: TransferSession
    optimizer: ConcurrencyOptimizer | MultiParamOptimizer
    utility: UtilityFunction = field(default_factory=NonlinearPenaltyUtility)
    jitter: float = 0.02
    rng: np.random.Generator | None = None
    history: list[DecisionRecord] = field(default_factory=list)

    def start(self) -> None:
        """Apply the optimizer's first setting to the session."""
        first = self.optimizer.first_setting()
        self._apply(first)

    def decide(self, now: float) -> None:
        """One decision tick: measure, score, ask, apply."""
        params = self.session.params
        sample = self.session.monitor.take(
            concurrency=params.concurrency,
            parallelism=params.parallelism,
            pipelining=params.pipelining,
            rng=self.rng,
            jitter=self.jitter,
        )
        if sample.duration <= 0:
            return
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit(
                MonitorSampleTaken,
                session=self.session.name,
                duration_s=sample.duration,
                throughput_bps=sample.throughput_bps,
                loss_rate=sample.loss_rate,
                concurrency=params.concurrency,
                parallelism=params.parallelism,
                pipelining=params.pipelining,
                valid=sample.valid,
            )
        if not sample.valid:
            # The interval overlapped an infrastructure outage: the
            # reading reflects the fault, not the setting.  Feeding it
            # to GD/BO would send the search chasing a zero-throughput
            # cliff, so the tick is dropped (params stay, no history).
            return
        u = self.utility(sample)
        if tracer is not None:
            tracer.emit(
                UtilityEvaluated,
                session=self.session.name,
                utility=u,
                throughput_bps=sample.throughput_bps,
                loss_rate=sample.loss_rate,
            )
        obs = Observation(params=params, utility=u, sample=sample)
        proposal = self.optimizer.update(obs)
        next_params = self._apply(proposal)
        if tracer is not None:
            tracer.emit(
                OptimizerDecision,
                session=self.session.name,
                optimizer=type(self.optimizer).__name__,
                concurrency=next_params.concurrency,
                parallelism=next_params.parallelism,
                pipelining=next_params.pipelining,
                utility=u,
            )
        self.history.append(
            DecisionRecord(
                time=now,
                params=params,
                throughput_bps=sample.throughput_bps,
                loss_rate=sample.loss_rate,
                utility=u,
                next_params=next_params,
            )
        )

    def _apply(self, proposal) -> TransferParams:
        if isinstance(proposal, TransferParams):
            next_params = proposal
        else:
            next_params = self.session.params.with_(concurrency=int(proposal))
        self.session.set_params(next_params)
        return next_params

    # -- convenience accessors for experiments -----------------------------------

    def utilities(self) -> np.ndarray:
        """Utility per decision, in time order."""
        return np.array([r.utility for r in self.history])

    def concurrencies(self) -> np.ndarray:
        """Evaluated concurrency per decision, in time order."""
        return np.array([r.params.concurrency for r in self.history])

    def throughputs(self) -> np.ndarray:
        """Measured throughput (bps) per decision, in time order."""
        return np.array([r.throughput_bps for r in self.history])

    def times(self) -> np.ndarray:
        """Decision timestamps."""
        return np.array([r.time for r in self.history])
