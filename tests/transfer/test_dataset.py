"""Dataset and file-queue tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transfer.dataset import (
    Dataset,
    large_dataset,
    mixed_dataset,
    small_dataset,
    uniform_dataset,
)
from repro.units import GB, GiB, KiB, MB, MiB


class TestDataset:
    def test_uniform_main_workload(self):
        ds = uniform_dataset(1000, 1 * GB)
        assert ds.file_count == 1000
        assert ds.total_bytes == pytest.approx(1e12)
        assert ds.mean_file_bytes == pytest.approx(1e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.array([]))
        with pytest.raises(ValueError):
            Dataset(np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 2)))
        with pytest.raises(ValueError):
            uniform_dataset(0)
        with pytest.raises(ValueError):
            uniform_dataset(10, 0)

    def test_str_contains_name(self):
        assert "many-small" in str(uniform_dataset(10, 1 * MB, name="many-small"))


class TestGenerators:
    def test_small_dataset_bounds(self):
        ds = small_dataset(total_bytes=1 * GiB, seed=1)
        assert np.all(ds.sizes >= 1 * KiB)
        assert np.all(ds.sizes <= 10 * MiB)
        assert ds.total_bytes >= 1 * GiB

    def test_large_dataset_bounds(self):
        ds = large_dataset(total_bytes=20 * GiB, seed=1)
        assert np.all(ds.sizes >= 100 * MiB)
        assert np.all(ds.sizes <= 10 * GiB)
        assert ds.total_bytes >= 20 * GiB

    def test_total_not_wildly_overshot(self):
        ds = small_dataset(total_bytes=1 * GiB, seed=2)
        assert ds.total_bytes <= 1 * GiB + 10 * MiB  # one extra file at most

    def test_seed_reproducible(self):
        a = small_dataset(total_bytes=512 * MiB, seed=5)
        b = small_dataset(total_bytes=512 * MiB, seed=5)
        assert np.array_equal(a.sizes, b.sizes)

    def test_seed_matters(self):
        a = small_dataset(total_bytes=512 * MiB, seed=5)
        b = small_dataset(total_bytes=512 * MiB, seed=6)
        assert not np.array_equal(a.sizes[: min(a.file_count, b.file_count)],
                                  b.sizes[: min(a.file_count, b.file_count)])

    def test_mixed_is_union(self):
        mixed = mixed_dataset(seed=0)
        small = small_dataset(seed=0)
        large = large_dataset(seed=1)
        assert mixed.file_count == small.file_count + large.file_count
        assert mixed.total_bytes == pytest.approx(small.total_bytes + large.total_bytes)

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_small_dataset_property(self, seed):
        ds = small_dataset(total_bytes=256 * MiB, seed=seed)
        assert np.all((ds.sizes >= 1 * KiB) & (ds.sizes <= 10 * MiB))


class TestFileQueue:
    def test_pop_order_and_exhaustion(self):
        ds = Dataset(np.array([1.0, 2.0, 3.0]))
        q = ds.queue()
        assert q.pop() == (1.0, 0.0)
        assert q.pop() == (2.0, 0.0)
        assert q.pop() == (3.0, 0.0)
        assert q.pop() is None
        assert q.exhausted

    def test_remaining_files(self):
        q = Dataset(np.array([1.0, 2.0])).queue()
        assert q.remaining_files == 2
        q.pop()
        assert q.remaining_files == 1

    def test_push_back_keeps_progress(self):
        q = Dataset(np.array([10.0])).queue()
        size, done = q.pop()
        q.push_back(size, 4.0)
        assert q.pop() == (10.0, 4.0)

    def test_push_back_validation(self):
        q = Dataset(np.array([10.0])).queue()
        with pytest.raises(ValueError):
            q.push_back(10.0, 11.0)
        with pytest.raises(ValueError):
            q.push_back(10.0, -1.0)

    def test_repeat_cycles(self):
        q = Dataset(np.array([1.0, 2.0])).queue(repeat=True)
        values = [q.pop()[0] for _ in range(5)]
        assert values == [1.0, 2.0, 1.0, 2.0, 1.0]
        assert not q.exhausted

    def test_returned_files_served_first(self):
        q = Dataset(np.array([1.0, 2.0])).queue()
        q.pop()
        q.push_back(1.0, 0.5)
        assert q.pop() == (1.0, 0.5)
        assert q.pop() == (2.0, 0.0)

    def test_poppable_until_the_cursor_runs_out(self):
        q = Dataset(np.array([1.0, 2.0])).queue()
        assert q.poppable
        q.pop()
        assert q.poppable
        q.pop()
        assert not q.poppable
        assert q.pop() is None

    def test_push_back_makes_a_drained_queue_poppable(self):
        q = Dataset(np.array([10.0])).queue()
        size, _ = q.pop()
        assert not q.poppable
        q.push_back(size, 4.0, attempts=1)
        assert q.poppable
        assert q.pop() == (10.0, 4.0)
        assert not q.poppable

    def test_held_file_is_pending_but_not_poppable(self):
        q = Dataset(np.array([10.0])).queue()
        size, done = q.pop()
        q.hold()
        assert not q.poppable
        assert not q.exhausted
        q.release()
        # Releasing only ends the hold; the file is back once pushed.
        assert not q.poppable
        q.push_back(size, done, attempts=1)
        assert q.poppable

    def test_repeat_is_always_poppable(self):
        q = Dataset(np.array([1.0, 2.0])).queue(repeat=True)
        for _ in range(5):
            assert q.poppable
            assert q.pop() is not None

    @given(
        repeat=st.booleans(),
        ops=st.lists(st.sampled_from(["pop", "push_back", "hold", "release"]), max_size=30),
    )
    @settings(max_examples=60)
    def test_poppable_predicts_pop(self, repeat, ops):
        """``poppable`` is True exactly when the next ``pop`` returns a file."""
        q = Dataset(np.array([1.0, 2.0, 3.0])).queue(repeat=repeat)
        in_hand: list[tuple[float, float]] = []
        held: list[tuple[float, float]] = []
        for op in ops:
            if op == "pop":
                expected = q.poppable
                item = q.pop()
                assert (item is not None) == expected
                if item is not None:
                    in_hand.append(item)
            elif op == "push_back" and in_hand:
                q.push_back(*in_hand.pop())
            elif op == "hold" and in_hand:
                q.hold()
                held.append(in_hand.pop())
            elif op == "release" and held:
                q.release()
                q.push_back(*held.pop())

    @given(
        sizes=st.lists(st.floats(min_value=1.0, max_value=1e9), min_size=1, max_size=30)
    )
    @settings(max_examples=60)
    def test_conservation(self, sizes):
        """Total bytes handed out equals the dataset total."""
        q = Dataset(np.array(sizes)).queue()
        total = 0.0
        while (item := q.pop()) is not None:
            size, done = item
            total += size - done
        assert total == pytest.approx(sum(sizes))
