"""Transfer session tests: worker lifecycle, gaps, progress accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hosts.dtn import DataTransferNode
from repro.network.path import build_dumbbell
from repro.storage.parallel_fs import throttled_fs
from repro.transfer.dataset import Dataset
from repro.transfer.session import TransferParams, TransferSession
from repro.units import GB, Gbps, Mbps

from tests.integration.per_session import session_step


def make_session(sizes=None, params=TransferParams(), repeat=False, rtt=0.03):
    storage = throttled_fs(100 * Mbps, 10 * Gbps)
    src = DataTransferNode("src", storage=storage)
    dst = DataTransferNode("dst", storage=throttled_fs(100 * Mbps, 10 * Gbps))
    dataset = Dataset(np.asarray(sizes if sizes is not None else [1 * GB] * 10, dtype=float))
    return TransferSession(
        name="s",
        source=src,
        destination=dst,
        path=build_dumbbell(1 * Gbps, rtt),
        queue=dataset.queue(repeat=repeat),
        params=params,
    )


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransferParams(concurrency=0)
        with pytest.raises(ValueError):
            TransferParams(parallelism=-1)
        with pytest.raises(ValueError):
            TransferParams(pipelining=0)

    def test_total_streams(self):
        assert TransferParams(concurrency=5, parallelism=4).total_streams == 20

    def test_with_(self):
        p = TransferParams(concurrency=2).with_(parallelism=3)
        assert p.concurrency == 2 and p.parallelism == 3

    def test_numpy_integers_coerced_to_int(self):
        # Optimizers hand back np.int64; the params must store built-in
        # ints so fingerprints, cache keys, and JSON never see numpy types.
        p = TransferParams(
            concurrency=np.int64(8), parallelism=np.int32(4), pipelining=np.int64(2)
        )
        assert type(p.concurrency) is int and p.concurrency == 8
        assert type(p.parallelism) is int and p.parallelism == 4
        assert type(p.pipelining) is int and p.pipelining == 2
        assert type(p.total_streams) is int

    def test_numpy_params_round_trip_through_jsonl(self, tmp_path):
        # A params change produced by an optimizer (np.int64 values) must
        # survive trace export: JSON encoding and read-back both work and
        # reproduce the same integers.
        from repro.obs.events import SessionParamsChange
        from repro.obs.exporters import JsonlExporter, read_events
        from repro.obs.tracer import use_tracing

        s = make_session(params=TransferParams(concurrency=2))
        target = tmp_path / "trace.jsonl"
        with JsonlExporter(target) as exporter, use_tracing(exporter):
            s.set_params(
                TransferParams(concurrency=np.int64(6), parallelism=np.int64(3))
            )
        events = [e for e in read_events(target) if isinstance(e, SessionParamsChange)]
        assert len(events) == 1
        assert events[0].concurrency == 6 and type(events[0].concurrency) is int
        assert events[0].parallelism == 3 and type(events[0].parallelism) is int


class TestWorkerLifecycle:
    def test_initial_workers_match_concurrency(self):
        s = make_session(params=TransferParams(concurrency=4))
        assert s.rates.size == 4
        assert s.has_file.sum() == 4

    def test_new_workers_pay_startup_gap(self):
        s = make_session(params=TransferParams(concurrency=1))
        s.set_concurrency(3)
        assert np.all(s.gap_left[1:] > 0)

    def test_shrink_returns_files_with_progress(self):
        s = make_session(sizes=[100.0] * 5, params=TransferParams(concurrency=3))
        s.file_done[2] = 40.0
        before = s.queue.remaining_files
        s.set_concurrency(1)
        assert s.rates.size == 1
        assert s.queue.remaining_files == before + 2
        # Progress preserved on requeue.
        items = [s.queue.pop() for _ in range(2)]
        assert (100.0, 40.0) in items

    def test_more_workers_than_files(self):
        s = make_session(sizes=[100.0, 100.0], params=TransferParams(concurrency=5))
        assert s.has_file.sum() == 2

    def test_grow_then_shrink_conserves_bytes(self):
        s = make_session(sizes=[100.0] * 4, params=TransferParams(concurrency=2))
        s.set_concurrency(4)
        s.set_concurrency(1)
        remaining = 0.0
        while (item := s.queue.pop()) is not None:
            remaining += item[0] - item[1]
        in_flight = float((s.file_size - s.file_done)[s.has_file].sum())
        assert remaining + in_flight == pytest.approx(400.0)


class TestStep:
    def test_progress_at_rate(self):
        s = make_session(sizes=[1 * GB], params=TransferParams(concurrency=1))
        s.gap_left[:] = 0.0
        s.rates[:] = 8e8  # 100 MB/s
        session_step(s, dt=1.0, targets=np.array([8e8]), loss=0.0, now=0.0)
        assert s.file_done[0] == pytest.approx(1e8, rel=0.01)

    def test_gap_blocks_progress(self):
        s = make_session(sizes=[1 * GB], params=TransferParams(concurrency=1))
        s.gap_left[:] = 5.0
        s.rates[:] = 8e8
        session_step(s, dt=1.0, targets=np.array([8e8]), loss=0.0, now=0.0)
        assert s.file_done[0] == 0.0
        assert s.gap_left[0] == pytest.approx(4.0)

    def test_loss_reduces_goodput(self):
        s = make_session(sizes=[1 * GB], params=TransferParams(concurrency=1))
        s.gap_left[:] = 0.0
        s.rates[:] = 8e8
        session_step(s, dt=1.0, targets=np.array([8e8]), loss=0.1, now=0.0)
        assert s.file_done[0] == pytest.approx(0.9e8, rel=0.01)

    def test_file_completion_cascades(self):
        """A fast worker finishes several small files within one step."""
        s = make_session(sizes=[1000.0] * 20, params=TransferParams(concurrency=1), rtt=0.0)
        s.gap_left[:] = 0.0
        s.rates[:] = 8e4  # 10 KB/s -> 10 files/s
        session_step(s, dt=1.0, targets=np.array([8e4]), loss=0.0, now=0.0)
        assert s.files_completed >= 8

    def test_completion_sets_finished(self):
        s = make_session(sizes=[100.0], params=TransferParams(concurrency=1))
        s.gap_left[:] = 0.0
        s.rates[:] = 8e8
        session_step(s, dt=1.0, targets=np.array([8e8]), loss=0.0, now=5.0)
        assert not s.active
        assert s.finished_at == pytest.approx(6.0)

    def test_on_complete_callback(self):
        s = make_session(sizes=[100.0], params=TransferParams(concurrency=1))
        done = []
        s.on_complete = done.append
        s.gap_left[:] = 0.0
        s.rates[:] = 8e8
        session_step(s, dt=1.0, targets=np.array([8e8]), loss=0.0, now=0.0)
        assert done == [s]

    def test_monitor_accumulates(self):
        s = make_session(sizes=[1 * GB], params=TransferParams(concurrency=1))
        s.gap_left[:] = 0.0
        s.rates[:] = 8e8
        session_step(s, dt=1.0, targets=np.array([8e8]), loss=0.0, now=0.0)
        sample = s.monitor.take(concurrency=1)
        assert sample.throughput_bps == pytest.approx(8e8, rel=0.01)

    def test_process_seconds_counts_both_hosts(self):
        """Each live worker is a process on the source *and* the
        destination, so one step of n workers costs 2*n*dt."""
        s = make_session(params=TransferParams(concurrency=3))
        session_step(s, dt=1.0, targets=np.full(3, 8e6), loss=0.0, now=0.0)
        session_step(s, dt=0.5, targets=np.full(3, 8e6), loss=0.0, now=1.0)
        assert s.process_seconds == pytest.approx(2 * 3 * 1.5)

    def test_total_good_bytes_tracks(self):
        s = make_session(sizes=[1 * GB], params=TransferParams(concurrency=1))
        s.gap_left[:] = 0.0
        s.rates[:] = 8e8
        for i in range(3):
            session_step(s, dt=1.0, targets=np.array([8e8]), loss=0.0, now=float(i))
        assert s.total_good_bytes == pytest.approx(3e8, rel=0.01)


class TestPerFileGap:
    def test_pipelining_amortises_control_rtts(self):
        s1 = make_session(params=TransferParams(concurrency=1, pipelining=1), rtt=0.06)
        s8 = make_session(params=TransferParams(concurrency=1, pipelining=8), rtt=0.06)
        open_cost = (
            s1.source.storage.open_latency + s1.destination.storage.open_latency
        )
        assert s1.per_file_gap() == pytest.approx(2 * 0.06 + open_cost)
        assert s8.per_file_gap() == pytest.approx(2 * 0.06 / 8 + open_cost)

    def test_gap_positive_even_with_deep_pipelining(self):
        s = make_session(params=TransferParams(concurrency=1, pipelining=64))
        assert s.per_file_gap() > 0.0


class TestInstantaneousRate:
    def test_sums_worker_rates(self):
        s = make_session(params=TransferParams(concurrency=3))
        s.rates[:] = [1e6, 2e6, 3e6]
        assert s.instantaneous_rate == pytest.approx(6e6)
