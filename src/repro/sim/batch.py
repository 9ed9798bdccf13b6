"""Batched per-worker state store: one contiguous array set for all sessions.

At scale (hundreds of sessions, tens of thousands of workers) the cost
of a fluid step is dominated by *per-session* numpy dispatch: every
session advancing its own small arrays costs dozens of interpreter
round trips, multiplied by the session count.  This module hoists that
state into one set of contiguous global arrays — ``rates``,
``file_size``, ``file_done``, ``gap_left``, ``stall_left``,
``attempts``, ``has_file`` — indexed by the executor's global worker
numbering (``_Topology.offsets``), so one vectorized pass advances
every session and link at once.

View discipline
---------------
Each attached :class:`~repro.transfer.session.TransferSession` holds
*views* into the global arrays (``session.rates is store.rates[lo:hi]``
memory-wise), installed by :meth:`TransferSession.adopt_state`.  All
in-place mutation — fault injection's ``crash_worker``/``stall_worker``,
``assign_files``, the cascade advance — therefore writes straight
through to the store.  Operations that *rebind* a session's arrays
(worker resize via ``np.concatenate``/slicing) detach that session from
the store; they already raise the executor's topology-dirty flag, so
the next fluid step rebuilds the topology and re-gathers every
session's current arrays into a fresh store.

Bit-for-bit parity
------------------
The batched pass is required to reproduce the per-session reference
advance exactly (``session_step`` in ``tests/integration/per_session.py``,
held to it by ``tests/integration/test_batch_parity.py``).  Three rules
make that hold:

* every elementwise update uses the same expression as the per-session
  code, with per-session scalars (loss goodput factor, TCP ramp blend)
  expanded per worker through the precomputed session-index gather
  (``v[self.expand]``, built once per topology epoch and
  value-identical to ``np.repeat(v, counts)`` — IEEE elementwise ops
  don't care whether the operand is broadcast, repeated, or gathered);
* per-session reductions are contiguous-slice ``np.add.reduce`` calls
  (the reduction ``.sum()`` runs, without its Python wrapper), which
  numpy's pairwise summation resolves identically to the session's own
  standalone array of the same length (``np.add.reduceat`` does *not*
  guarantee that and is only ever used as a boolean selector here);
* workers whose file completes inside the step fall back to the
  session's per-worker cascade (`TransferSession._advance_worker`), in
  ascending worker order — the same order, and therefore the same queue
  pops and float accumulation, as the per-session path.

At small widths a step costs its count of numpy calls, not their
arithmetic, so the step path uses ufuncs and ndarray methods
(``mask.nonzero()[0]``, ``arr.searchsorted``, ``np.count_nonzero``,
in-place ``+=``) instead of numpy's Python wrappers (``np.flatnonzero``,
``np.diff``, ``np.searchsorted``).  No value moves: the wrappers call
the same C routines, ``a += b`` rounds exactly as ``a + b``, and the
``.tolist()`` floats the per-session loops read are the doubles
``float(arr[i])`` returns.  The goodput factors (:meth:`goodput_of`)
are cached with the executor's equilibrium, and the idle flags
(:attr:`BatchStore.idle`) of one step's end serve the next step's start.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.obs.events import BatchCascadeFallback
from repro.obs.tracer import current_tracer

if TYPE_CHECKING:
    from repro.transfer.session import TransferSession


class BatchStore:
    """Contiguous per-worker state spanning every attached session.

    Built by the executor's topology rebuild from the session list and
    the global worker ``offsets`` (session ``i`` owns worker rows
    ``offsets[i]:offsets[i+1]``); lives exactly as long as the cached
    topology it belongs to.
    """

    def __init__(self, sessions: Sequence["TransferSession"], offsets: np.ndarray) -> None:
        self.sessions = list(sessions)
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.counts = self.offsets[1:] - self.offsets[:-1]
        self.total = int(self.offsets[-1]) if self.offsets.size else 0
        #: Per session: does some worker hold no file?  From
        #: :meth:`scan_idle`; ``None`` until the first scan.
        self.idle: list[bool] | None = None

        ss = self.sessions
        self.rates = np.concatenate([s.rates for s in ss])
        self.file_size = np.concatenate([s.file_size for s in ss])
        self.file_done = np.concatenate([s.file_done for s in ss])
        self.gap_left = np.concatenate([s.gap_left for s in ss])
        self.stall_left = np.concatenate([s.stall_left for s in ss])
        self.attempts = np.concatenate([s.attempts for s in ss])
        self.has_file = np.concatenate([s.has_file for s in ss])
        bounds = self.offsets.tolist()
        for s, lo, hi in zip(ss, bounds, bounds[1:]):
            s.adopt_state(
                self.rates[lo:hi],
                self.file_size[lo:hi],
                self.file_done[lo:hi],
                self.gap_left[lo:hi],
                self.stall_left[lo:hi],
                self.attempts[lo:hi],
                self.has_file[lo:hi],
            )

        #: Per-session TCP ramp time constants (fixed for a session's
        #: lifetime: path RTT and transport are frozen at construction).
        self._tau = np.array([s.tcp.ramp_tau(s.path_rtt) for s in ss])
        #: Session index of each worker row: the expansion gather that
        #: turns a per-session vector into a per-worker one.  Fixed for
        #: the store's lifetime (one topology epoch), so per-step
        #: ``np.repeat(per_session, counts)`` calls become plain fancy
        #: indexing — value-identical, repeat(v, c) == v[expand].  The
        #: executor's topology build expands its per-session tables
        #: with it too.
        self.expand = np.arange(len(ss)).repeat(self.counts)
        self._blend_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    # -- view management -----------------------------------------------------

    def detach(self, session: "TransferSession") -> None:
        """Give ``session`` back standalone copies of its state.

        Called when a session leaves the executor so its final state
        stops aliasing the (soon to be rebuilt) global arrays.
        """
        session.adopt_state(
            session.rates.copy(),
            session.file_size.copy(),
            session.file_done.copy(),
            session.gap_left.copy(),
            session.stall_left.copy(),
            session.attempts.copy(),
            session.has_file.copy(),
        )

    # -- per-session idle bookkeeping ----------------------------------------

    def scan_idle(self) -> list[bool]:
        """Per session: does some worker hold no file?  One global reduction.

        Kept in :attr:`idle`, which stays a superset of the idle
        sessions until a worker loses a file.  Every such loss reports a
        demand change, on which the executor clears :attr:`idle`.
        (``reduceat`` only steers assignment here, never float state.)
        """
        self.idle = (~np.logical_and.reduceat(self.has_file, self.offsets[:-1])).tolist()
        return self.idle

    # -- the batched advance --------------------------------------------------

    #: Distinct step lengths memoized before the blend cache resets.
    #: Steady stepping sees a handful of neighbouring floats; each
    #: event-clamped span adds one more key — the cap only guards
    #: callers that sweep dt continuously.
    _BLEND_CACHE_MAX = 256

    def _blends_for(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """``(per_session, per_worker)`` TCP ramp blends ``1 - exp(-dt / tau)``.

        One array expression over the per-session ``tau`` vector,
        elementwise bit-identical to :meth:`TcpModel.advance_rates`'s
        scalar ``exp``, expanded per worker; memoized per exact ``dt``
        value — the engine's accumulated clock makes the step size
        wobble between a handful of neighbouring float values, so a
        dict (not a last-value slot) holds them all.  The key is the
        *actual* step length: event clamping shortens steps to variable
        spans, and a blend for the wrong dt would silently skew every
        ramp.  The cache lives as long as the store, and every topology
        rebuild starts a new, empty one, so workloads with session churn
        miss often (``open-workload`` on most steps); a miss costs a
        fixed handful of array calls, not one ``exp`` per session.
        """
        entry = self._blend_cache.get(dt)
        if entry is None:
            if len(self._blend_cache) >= self._BLEND_CACHE_MAX:
                self._blend_cache.clear()
            per_session = 1.0 - np.exp(-dt / self._tau)
            entry = self._blend_cache[dt] = (per_session, per_session[self.expand])
        return entry

    def goodput_of(self, losses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(per_session, per_worker)`` goodput factors ``1 - losses``.

        The executor computes them once per equilibrium, for every
        :meth:`step` that replays it.
        """
        goodput = 1.0 - losses
        return goodput, goodput[self.expand]

    def step(
        self,
        dt: float,
        targets: np.ndarray,
        losses: np.ndarray,
        now: float,
        goodput: np.ndarray,
        gf_w: np.ndarray,
    ) -> None:
        """Advance every session by ``dt`` in one vectorized pass.

        Parameters
        ----------
        targets:
            Global per-worker allocated equilibrium rates (bps) from the
            executor's waterfill, in store order.
        losses:
            Per-session path-loss fractions this step.
        now:
            Simulation time at the *start* of the step.
        goodput, gf_w:
            ``goodput_of(losses)``: per-session and per-worker goodput
            factors.
        """
        # TCP dynamics: instant decrease, exponential relaxation up —
        # the same expression as TcpModel.advance_rates, in place:
        # rates + (targets - rates) * blend, then targets where lower.
        rates = self.rates
        decrease = targets < rates
        ramp = targets - rates
        ramp *= self._blends_for(dt)[1]
        rates += ramp
        np.copyto(rates, targets, where=decrease)

        # Stalls first (hung workers move nothing), then gaps.  Workers
        # with no stall see budget == dt exactly, so running every
        # session through the stall branch is value-identical to the
        # per-session path's branch-per-session structure.
        gap_left = self.gap_left
        if np.count_nonzero(self.stall_left):
            stall_used = np.minimum(self.stall_left, dt)
            self.stall_left -= stall_used
            self._note_stalls(stall_used)
            budget = dt - stall_used
            time_left = np.maximum(0.0, budget - gap_left)
            gap_left -= budget
        else:
            time_left = np.maximum(0.0, dt - gap_left)
            gap_left -= dt
        np.maximum(0.0, gap_left, out=gap_left)

        good_rate_Bps = rates * gf_w
        good_rate_Bps /= 8.0

        good_totals = [0.0] * len(self.sessions)
        moving = (
            self.has_file & (time_left > 1e-12) & (good_rate_Bps > 1e-9)
        ).nonzero()[0]
        if moving.size:
            done = self.file_done[moving]
            speed = good_rate_Bps[moving]
            left = time_left[moving]
            finishes = ((self.file_size[moving] - done) / speed) <= left
            n_finish = np.count_nonzero(finishes)

            # Streaming workers (no completion this step): one global
            # update, then per-session contiguous-slice sums.  Without a
            # completion they are all of ``moving`` and the gathers above
            # serve as they are.
            streaming = moving
            if n_finish:
                keep = ~finishes
                streaming, done, speed, left = moving[keep], done[keep], speed[keep], left[keep]
            moved = speed * left
            self.file_done[streaming] = done + moved
            self._slice_sums(streaming, moved, good_totals)

            # Completion cascade: only workers that actually finish a
            # file fall back to the per-worker advance, in worker order.
            if n_finish:
                cascading = moving[finishes]
                cuts = cascading.searchsorted(self.offsets).tolist()
                gfs = goodput.tolist()
                cascade_sessions = 0
                for i, s in enumerate(self.sessions):
                    if cuts[i] == cuts[i + 1]:
                        continue
                    cascade_sessions += 1
                    base = int(self.offsets[i])
                    total = good_totals[i]
                    for w in cascading[cuts[i] : cuts[i + 1]].tolist():
                        good, _ = s._advance_worker(
                            w - base, float(time_left[w]), float(good_rate_Bps[w]), gfs[i]
                        )
                        total += good
                    good_totals[i] = total

                tracer = current_tracer()
                if tracer is not None:
                    tracer.emit(
                        BatchCascadeFallback,
                        sessions=cascade_sessions,
                        workers=int(cascading.size),
                    )
        self._finish(good_totals, losses, goodput, dt, now)

    def _slice_sums(
        self, workers: np.ndarray, moved: np.ndarray, good_totals: list[float]
    ) -> None:
        """Set each session's total to its slice sum of ``moved`` (rows ``workers``)."""
        cuts = workers.searchsorted(self.offsets).tolist()
        for i in range(len(good_totals)):
            if cuts[i] != cuts[i + 1]:
                good_totals[i] = float(np.add.reduce(moved[cuts[i] : cuts[i + 1]]))

    def _finish(
        self,
        good_totals: list[float],
        losses: np.ndarray,
        goodput: np.ndarray,
        dt: float,
        now: float,
    ) -> None:
        """Per-session accounting; assignment only where a worker idles."""
        idle = self.scan_idle()
        for s, good, gf, loss, has_idle in zip(
            self.sessions, good_totals, goodput.tolist(), losses.tolist(), idle
        ):
            s.current_loss = loss
            s._finish_step(good, good / gf if gf > 0 else good, dt, now, idle_workers=has_idle)

    def _note_stalls(self, stall_used: np.ndarray) -> None:
        """Add each session's consumed stall seconds to its counter."""
        offsets = self.offsets
        consumed = np.add.reduceat(stall_used, offsets[:-1])
        for i in (consumed > 0.0).nonzero()[0].tolist():
            lo, hi = offsets[i], offsets[i + 1]
            self.sessions[i].stalled_seconds += float(np.add.reduce(stall_used[lo:hi]))
