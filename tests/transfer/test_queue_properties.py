"""Property-based conservation tests for FileQueue and session accounting.

These drive the queue and the session through randomized churn
(pop / push_back / hold / release, worker crashes, stalls, concurrency
resizes) and check the invariants the rest of the stack leans on:

* no file is ever lost or duplicated — completed + queued + in-flight
  always equals the dataset's file count;
* no byte is ever lost or double-counted — progress parked in the queue,
  progress on in-flight files, and completed files always sum to the
  session's ``total_good_bytes``;
* a held file (retry backoff outstanding) keeps the queue non-exhausted,
  so a session can never silently complete while a requeue timer runs;
* requeued files come back LIFO with their progress and attempt count
  intact (the documented ``FileQueue.pop`` contract).

Requires ``hypothesis`` (skipped when unavailable, e.g. minimal CI
images without the dev extras).
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.hosts.dtn import DataTransferNode
from repro.network.path import build_dumbbell
from repro.storage.parallel_fs import throttled_fs
from repro.transfer.dataset import Dataset, FileQueue
from repro.transfer.session import TransferParams, TransferSession
from repro.units import Gbps, Mbps

from tests.integration.per_session import session_step


# ---------------------------------------------------------------------------
# FileQueue churn.
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_queue_conserves_files_and_bytes_under_churn(data):
    """Random pop/push_back/hold/release churn against a reference model.

    Integer file sizes and integer progress keep every comparison exact.
    """
    n = data.draw(st.integers(1, 10), label="files")
    sizes = data.draw(
        st.lists(st.integers(1, 10**6), min_size=n, max_size=n), label="sizes"
    )
    q = FileQueue(np.asarray(sizes, dtype=float))

    # Reference model: the queue's contents as plain lists.
    cursor = 0  # fresh files handed out so far
    returned: list[tuple[float, float, int]] = []  # push_back stack (LIFO)
    held: list[tuple[float, float, int]] = []  # hold()-parked files
    outstanding: list[tuple[float, float, int]] = []  # popped, in our hands
    moved = 0.0  # progress recorded via push_back done increments

    def check_invariants() -> None:
        assert q.remaining_files == len(returned) + len(held) + (n - cursor)
        assert q.exhausted == (q.remaining_files == 0)
        if held:
            # A held file is pending work: the queue must not report done.
            assert not q.exhausted

    n_ops = data.draw(st.integers(5, 40), label="n_ops")
    for _ in range(n_ops):
        choices = ["pop"]
        if outstanding:
            choices += ["push_back", "hold"]
        if held:
            choices.append("release")
        op = data.draw(st.sampled_from(choices))

        if op == "pop":
            item = q.pop()
            if returned:
                # Documented contract: returned files come back LIFO,
                # progress and attempt count intact, ahead of fresh files.
                size, done, attempts = returned.pop()
                assert item == (size, done)
                assert q.last_attempts == attempts
                outstanding.append((size, done, attempts))
            elif cursor < n:
                assert item == (float(sizes[cursor]), 0.0)
                assert q.last_attempts == 0
                outstanding.append((float(sizes[cursor]), 0.0, 0))
                cursor += 1
            else:
                # Nothing poppable; held files are the only remaining work.
                assert item is None
                assert q.remaining_files == len(held)
        elif op == "push_back":
            idx = data.draw(st.integers(0, len(outstanding) - 1))
            size, done, attempts = outstanding.pop(idx)
            new_done = float(data.draw(st.integers(int(done), int(size))))
            failed = data.draw(st.booleans())
            new_attempts = attempts + 1 if failed else attempts
            moved += new_done - done
            q.push_back(size, new_done, new_attempts)
            returned.append((size, new_done, new_attempts))
        elif op == "hold":
            idx = data.draw(st.integers(0, len(outstanding) - 1))
            held.append(outstanding.pop(idx))
            q.hold()
        else:  # release: the backoff timer fired, requeue the file
            idx = data.draw(st.integers(0, len(held) - 1))
            size, done, attempts = held.pop(idx)
            q.release()
            q.push_back(size, done, attempts)
            returned.append((size, done, attempts))

        check_invariants()

    # Drain: release every held file, then pop the queue dry.  The
    # multiset of files and the byte totals must match the model exactly.
    for size, done, attempts in held:
        q.release()
        q.push_back(size, done, attempts)
        returned.append((size, done, attempts))
    held.clear()

    drained: list[tuple[float, float]] = []
    while (item := q.pop()) is not None:
        drained.append(item)
    assert q.exhausted

    expected = sorted((s, d) for s, d, _ in returned)
    expected += sorted((float(s), 0.0) for s in sizes[cursor:])
    assert sorted(drained) == sorted(expected)

    # Byte conservation: un-transferred bytes across every bucket equal
    # the dataset total minus the progress pushed back during churn.
    left = sum(s - d for s, d in drained) + sum(s - d for s, d, _ in outstanding)
    assert left == float(sum(sizes)) - moved


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 8),
    popped=st.integers(1, 8),
    held_count=st.integers(1, 8),
)
def test_exhausted_never_fires_with_held_files(n, popped, held_count):
    """However many files are popped, holding any of them pins the queue open."""
    popped = min(popped, n)
    held_count = min(held_count, popped)
    q = FileQueue(np.full(n, 100.0))
    items = [q.pop() for _ in range(popped)]
    for _ in range(held_count):
        q.hold()
    # Pop everything else dry: still not exhausted while holds are out.
    while q.pop() is not None:
        pass
    assert not q.exhausted
    assert q.remaining_files == held_count
    for size, done in items[:held_count]:
        q.release()
        q.push_back(size, done)
    while q.pop() is not None:
        pass
    assert q.exhausted


# ---------------------------------------------------------------------------
# Session accounting churn.
# ---------------------------------------------------------------------------


def make_session(n_files: int, file_bytes: float, concurrency: int) -> TransferSession:
    storage = throttled_fs(100 * Mbps, 10 * Gbps)
    src = DataTransferNode("src", storage=storage)
    dst = DataTransferNode("dst", storage=throttled_fs(100 * Mbps, 10 * Gbps))
    dataset = Dataset(np.full(n_files, float(file_bytes)))
    return TransferSession(
        name="s",
        source=src,
        destination=dst,
        path=build_dumbbell(1 * Gbps, 0.03),
        queue=dataset.queue(repeat=False),
        params=TransferParams(concurrency=concurrency),
    )


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_session_conserves_files_and_bytes_under_fault_churn(data):
    """Crashes, stalls, resizes, and steps never lose a file or a byte."""
    n_files = data.draw(st.integers(2, 8), label="files")
    file_bytes = 1000.0
    concurrency = data.draw(st.integers(1, 4), label="concurrency")
    s = make_session(n_files, file_bytes, concurrency)

    def check_invariants() -> None:
        in_flight = int(s.has_file.sum())
        assert s.files_completed + s.queue.remaining_files + in_flight == n_files
        # Every good byte is parked somewhere: completed files, in-flight
        # progress, or progress riding on requeued files.
        parked = (
            s.files_completed * file_bytes
            + float(s.file_done[s.has_file].sum())
            + sum(done for _, done, _ in s.queue._returned)
        )
        assert parked == pytest.approx(s.total_good_bytes, abs=1e-6)
        assert np.all(s.attempts >= 0)

    now = 0.0
    n_ops = data.draw(st.integers(5, 25), label="n_ops")
    for _ in range(n_ops):
        op = data.draw(
            st.sampled_from(["step", "step", "step", "crash", "stall", "resize"])
        )
        workers = s.rates.size
        if op == "step":
            dt = data.draw(st.floats(0.05, 2.0, allow_nan=False))
            rate = data.draw(st.sampled_from([8e2, 8e3, 8e4]))
            loss = data.draw(st.sampled_from([0.0, 0.0, 0.01]))
            session_step(s, dt=dt, targets=np.full(workers, rate), loss=loss, now=now)
            now += dt
        elif op == "crash":
            s.crash_worker(data.draw(st.integers(0, workers - 1)))
        elif op == "stall":
            s.stall_worker(
                data.draw(st.integers(0, workers - 1)),
                data.draw(st.floats(0.0, 3.0, allow_nan=False)),
            )
        else:
            s.set_concurrency(data.draw(st.integers(1, 6)))
        check_invariants()

    # Run the session to completion: every file must land exactly once.
    for _ in range(10_000):
        if not s.active:
            break
        session_step(s, dt=1.0, targets=np.full(s.rates.size, 8e4), loss=0.0, now=now)
        now += 1.0
    assert not s.active
    assert s.files_completed == n_files
    assert s.queue.remaining_files == 0
    assert not s.has_file.any()
    assert s.total_good_bytes == pytest.approx(n_files * file_bytes, abs=1e-6)
