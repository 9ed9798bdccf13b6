"""HARP: historical analysis + real-time probing (paper §4.3, Fig. 2).

HARP (Arslan, Guner, Kosar — SC'16; TPDS'18) trains regression models
on *historical transfer logs* to predict throughput as a function of
(concurrency, parallelism, pipelining), refines the prediction with a
short real-time probing phase, then fixes the setting that maximises
its *own predicted throughput*.  Two structural properties follow, and
both are the paper's critique:

1. **History bias** — the paper's HARP instance was trained on 10 Gbps
   networks, so on 40 Gbps paths its throughput ceiling belief is a
   poor extrapolation and it settles ~50% below the achievable rate
   (Fig. 2a).
2. **No fairness mechanism** — its utility is pure throughput.  A
   late-coming HARP probes *under contention*, fits a slower-saturating
   throughput curve, and therefore picks a higher concurrency than the
   incumbent chose when the system was idle — grabbing an outsized
   share (Fig. 2b).

Our implementation distils that mechanism: a class-ceiling belief from
a :class:`HistoricalModel`, three probe intervals, a saturating-curve
fit ``T(c) = Tsat·c / (h + c)``, and the smallest concurrency whose
predicted throughput reaches 95% of the believed ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.transfer.session import TransferParams, TransferSession
from repro.units import Gbps


@dataclass(frozen=True)
class HistoricalModel:
    """HARP's trained belief about achievable throughput per network class.

    The defaults encode "trained on 10 Gbps networks":

    * 10G-class LAN logs (sub-ms RTT) achieved ~9.5 Gbps;
    * 10G-class WAN logs achieved ~5.2 Gbps;
    * anything faster is extrapolated as ``extrapolation_fraction`` of
      the link rate — the unreliable reach beyond the training data.
    """

    lan_ceiling_bps: float = 9.5 * Gbps
    wan_ceiling_bps: float = 5.2 * Gbps
    trained_capacity_bps: float = 12 * Gbps
    lan_extrapolation_fraction: float = 0.5
    wan_extrapolation_fraction: float = 0.35
    wan_rtt_threshold: float = 5e-3
    parallelism: int = 4
    pipelining: int = 4

    def ceiling(self, path_capacity_bps: float, rtt: float) -> float:
        """Believed achievable throughput for a path.

        WAN classes carry a lower fraction: the 10G training logs show
        long-RTT transfers achieving a smaller share of line rate, and
        the regression carries that ratio into its extrapolation.
        """
        wan = rtt >= self.wan_rtt_threshold
        if path_capacity_bps <= self.trained_capacity_bps:
            ceiling = self.wan_ceiling_bps if wan else self.lan_ceiling_bps
            return min(ceiling, path_capacity_bps)
        fraction = self.wan_extrapolation_fraction if wan else self.lan_extrapolation_fraction
        return fraction * path_capacity_bps


def _saturating(c: np.ndarray, t_sat: float, h: float) -> np.ndarray:
    """The regression form: hyperbolic saturation in concurrency."""
    return t_sat * c / (h + c)


def fit_throughput_curve(
    concurrencies: np.ndarray, throughputs_bps: np.ndarray
) -> tuple[float, float]:
    """Least-squares fit of ``T(c) = Tsat·c/(h+c)`` to probe results.

    Tsat is bounded at 2× the best observation — HARP's regression
    extrapolates, but not without limit.  Returns ``(t_sat, h)``.
    """
    c = np.asarray(concurrencies, dtype=float)
    t = np.asarray(throughputs_bps, dtype=float)
    t_max = float(t.max())
    if t_max <= 0:
        return 0.0, 1.0
    from scipy.optimize import curve_fit  # deferred: only HARP runs need scipy

    try:
        (t_sat, h), _ = curve_fit(
            _saturating,
            c,
            t,
            p0=[t_max * 1.2, float(c.mean())],
            bounds=([t_max * 0.5, 1e-3], [t_max * 2.0, 1e3]),
            maxfev=2000,
        )
    except RuntimeError:  # no convergence: fall back to linear belief
        per_worker = t_max / float(c[np.argmax(t)])
        return per_worker * 64.0, 64.0
    return float(t_sat), float(h)


def choose_concurrency(
    t_sat: float, h: float, ceiling_bps: float, cc_max: int = 32, target_fraction: float = 0.95
) -> int:
    """Smallest concurrency whose predicted throughput hits the target.

    Target is ``target_fraction × min(ceiling, Tsat)``.  If the fit can
    never reach it, return ``cc_max`` (throughput-maximising and
    monotone — HARP has no reason to stop early).
    """
    target = target_fraction * min(ceiling_bps, t_sat)
    if target <= 0:
        return 1
    for c in range(1, cc_max + 1):
        if _saturating(np.array([float(c)]), t_sat, h)[0] >= target:
            return c
    return cc_max


@dataclass
class HarpController:
    """Probe → fit → fix controller for one session.

    Parameters
    ----------
    session:
        The transfer to control.
    model:
        Historical beliefs.
    probe_ladder:
        Concurrency values evaluated during the probing phase, one
        sample interval each.
    cc_max:
        Hard concurrency cap.
    """

    session: TransferSession
    model: HistoricalModel = field(default_factory=HistoricalModel)
    probe_ladder: tuple[int, ...] = (2, 4, 8)
    cc_max: int = 32
    history: list[tuple[float, int, float]] = field(default_factory=list)
    chosen_concurrency: int | None = None
    _probe_results: list[tuple[int, float]] = field(default_factory=list)
    _probe_index: int = 0

    def start(self) -> None:
        """Begin the probing phase."""
        first = self.probe_ladder[0]
        self.session.set_params(
            TransferParams(
                concurrency=first,
                parallelism=self.model.parallelism,
                pipelining=self.model.pipelining,
            )
        )

    def decide(self, now: float) -> None:
        """One sample interval: record, and advance probe/fix state."""
        params = self.session.params
        sample = self.session.monitor.take(
            concurrency=params.concurrency,
            parallelism=params.parallelism,
            pipelining=params.pipelining,
        )
        if sample.duration <= 0:
            return
        self.history.append((now, params.concurrency, sample.throughput_bps))

        if self.chosen_concurrency is not None:
            return  # fixed for the rest of the transfer

        self._probe_results.append((params.concurrency, sample.throughput_bps))
        self._probe_index += 1
        if self._probe_index < len(self.probe_ladder):
            self.session.set_params(
                params.with_(concurrency=self.probe_ladder[self._probe_index])
            )
            return

        cc, tput = zip(*self._probe_results)
        t_sat, h = fit_throughput_curve(np.array(cc), np.array(tput))
        ceiling = self.model.ceiling(self.session.path.capacity, self.session.path.rtt)
        self.chosen_concurrency = choose_concurrency(t_sat, h, ceiling, self.cc_max)
        self.session.set_params(params.with_(concurrency=self.chosen_concurrency))
