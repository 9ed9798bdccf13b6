"""BatchStore adaptive primitives: transition bounds, jumps, blend cache.

Unit-level checks on the pieces ISSUE 9 added to the batched store,
with synthetic targets/losses so the arithmetic is verifiable by hand:

* :meth:`BatchStore.next_transition` — the completion bound uses the
  *allocated* rate times the loss goodput factor (conservative: actual
  rates ramp up from below), the wake-up bound is the earliest
  stall+gap expiry, and a store with nothing in flight is unbounded;
* :meth:`BatchStore.jump` — the closed-form n-step advance matches n
  iterated :meth:`BatchStore.step` calls to float round-off under the
  planner's preconditions (frozen equilibrium, no worker changing
  phase inside the window), including the snap-down branch and workers
  idle for the whole span;
* the dt-keyed TCP blend cache — variable spans produced by adaptive
  stepping get distinct, correct entries (a blend for the wrong dt
  would silently skew every ramp), and overflow eviction recomputes
  rather than serving stale values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.batch import BatchStore
from repro.testbeds.presets import emulab
from repro.transfer.dataset import uniform_dataset
from repro.transfer.session import TransferParams
from repro.units import MB, Mbps


def make_store(n_sessions: int = 2, concurrency: int = 4) -> BatchStore:
    """Sessions on private emulab testbeds adopted into one store."""
    sessions = []
    for i in range(n_sessions):
        sessions.append(
            emulab().new_session(
                uniform_dataset(50, 100 * MB),
                name=f"s{i}",
                params=TransferParams(concurrency=concurrency, parallelism=2),
                repeat=True,
            )
        )
    offsets = np.arange(n_sessions + 1, dtype=np.intp) * concurrency
    return BatchStore(sessions, offsets)


def prime(store: BatchStore, rate: float = 0.0) -> None:
    """Put every worker mid-file with no pending stall or spawn gap."""
    for s in store.sessions:
        s.assign_files()
    store.gap_left[:] = 0.0
    store.stall_left[:] = 0.0
    store.file_done[:] = 0.0
    store.rates[:] = rate


class TestNextTransition:
    def test_completion_bound_uses_allocated_goodput(self):
        store = make_store()
        prime(store)
        store.file_size[:] = 10 * MB
        store.file_done[:] = 0.0
        store.file_done[3] = 9 * MB  # nearest completion
        targets = np.full(store.total, 80 * Mbps)
        losses = np.array([0.25, 0.0])
        t = store.next_transition(5.0, targets, losses)
        # Worker 3 sits in session 0 (loss 0.25): 1 MB left at
        # 80 Mbps * 0.75 goodput.
        expected = (1 * MB) / (80 * Mbps * 0.75 / 8.0)
        assert t == pytest.approx(5.0 + expected, rel=1e-12)

    def test_wakeup_bound_is_earliest_idle_expiry(self):
        store = make_store()
        prime(store)
        store.file_size[:] = 1e18  # completions far away
        store.stall_left[2] = 0.7
        store.gap_left[2] = 0.1
        store.gap_left[6] = 0.3  # the earliest wake-up
        targets = np.full(store.total, 80 * Mbps)
        t = store.next_transition(0.0, targets, np.zeros(2))
        assert t == pytest.approx(0.3, rel=1e-12)

    def test_unbounded_when_nothing_in_flight(self):
        store = make_store()
        store.has_file[:] = False
        targets = np.full(store.total, 80 * Mbps)
        assert store.next_transition(0.0, targets, np.zeros(2)) == np.inf

    def test_zero_rate_workers_do_not_bound(self):
        store = make_store()
        prime(store)
        store.file_size[:] = 10 * MB
        assert store.next_transition(0.0, np.zeros(store.total), np.zeros(2)) == np.inf


class TestJumpClosedForm:
    H = 0.1
    N = 40

    def scenario(self) -> tuple[BatchStore, np.ndarray, np.ndarray]:
        store = make_store()
        prime(store)
        store.file_size[:] = 1e15  # nobody completes inside the window
        targets = np.full(store.total, 50 * Mbps)
        # Mixed ramp phases: one worker snapping down, one already
        # converged, the rest ramping up from zero.
        store.rates[0] = 100 * Mbps
        store.rates[1] = 50 * Mbps
        # Workers idle for the whole window (planner guarantees no
        # mid-window wake-ups, so idle budgets must cover the span).
        span = self.H * self.N
        store.stall_left[2] = span + 1.0
        store.gap_left[5] = span + 2.0
        losses = np.array([0.1, 0.0])
        return store, targets, losses

    @staticmethod
    def snapshot(store: BatchStore) -> dict:
        return {
            "rates": store.rates.copy(),
            "file_done": store.file_done.copy(),
            "gap_left": store.gap_left.copy(),
            "stall_left": store.stall_left.copy(),
            "good": [s.total_good_bytes for s in store.sessions],
            "stalled": [s.stalled_seconds for s in store.sessions],
            "elapsed": [s.monitor.elapsed for s in store.sessions],
        }

    def test_jump_matches_iterated_steps(self):
        iterated, targets, losses = self.scenario()
        for i in range(self.N):
            iterated.step(self.H, targets, losses, i * self.H, *iterated.goodput_of(losses))
        jumped, targets, losses = self.scenario()
        jumped.jump(self.H, self.N, targets, losses, 0.0, *jumped.goodput_of(losses))

        want = self.snapshot(iterated)
        got = self.snapshot(jumped)
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-12, err_msg=key)

    def test_snapped_down_worker_lands_exactly_on_target(self):
        store, targets, losses = self.scenario()
        store.jump(self.H, self.N, targets, losses, 0.0, *store.goodput_of(losses))
        # Instant decrease: the oracle puts rates[0] on target in the
        # first step and it never moves again, so the closed form must
        # reproduce it exactly, not approximately.
        assert store.rates[0] == targets[0]

    def test_idle_workers_move_no_bytes(self):
        store, targets, losses = self.scenario()
        done_before = store.file_done[[2, 5]].copy()
        store.jump(self.H, self.N, targets, losses, 0.0, *store.goodput_of(losses))
        assert (store.file_done[[2, 5]] == done_before).all()
        span = self.H * self.N
        assert store.stall_left[2] == pytest.approx(1.0)
        assert store.gap_left[5] == pytest.approx(2.0)
        assert store.sessions[0].stalled_seconds == pytest.approx(span)


class TestBlendCache:
    def test_variable_spans_get_distinct_correct_entries(self):
        store = make_store()
        for dt in (0.1, 0.25, 0.0625):
            per_worker = store._blends_for(dt)[1]
            expected = np.array(
                [1.0 - float(np.exp(-dt / tau)) for tau in store._tau]
            )[store._expand]
            np.testing.assert_array_equal(per_worker, expected, err_msg=f"dt={dt}")
        assert len(store._blend_cache) == 3

    def test_overflow_evicts_and_recomputes(self):
        store = make_store()
        baseline = store._blends_for(0.1)[1].copy()
        for i in range(store._BLEND_CACHE_MAX + 5):
            store._blends_for(0.1 + (i + 1) * 1e-6)
        assert len(store._blend_cache) <= store._BLEND_CACHE_MAX
        np.testing.assert_array_equal(store._blends_for(0.1)[1], baseline)

    def test_expand_gather_matches_repeat(self):
        store = make_store(n_sessions=3, concurrency=5)
        v = np.linspace(1.0, 3.0, 3)
        np.testing.assert_array_equal(v[store._expand], np.repeat(v, store.counts))
