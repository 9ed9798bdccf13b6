"""BatchStore unit checks: the dt-keyed TCP blend cache.

Event clamping shortens fixed-dt steps to variable spans, so the cache
must give each distinct ``dt`` its own correct entry (a blend for the
wrong dt would silently skew every ramp), and overflow eviction must
recompute rather than serve stale values.
"""

from __future__ import annotations

import numpy as np

from repro.sim.batch import BatchStore
from repro.testbeds.presets import emulab
from repro.transfer.dataset import uniform_dataset
from repro.transfer.session import TransferParams
from repro.units import MB


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


class TestBlendCache:
    def test_variable_spans_get_distinct_correct_entries(self):
        store = make_store()
        for dt in (0.1, 0.25, 0.0625):
            per_worker = store._blends_for(dt)[1]
            expected = np.array(
                [1.0 - float(np.exp(-dt / tau)) for tau in store._tau]
            )[store.expand]
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
        np.testing.assert_array_equal(v[store.expand], np.repeat(v, store.counts))
