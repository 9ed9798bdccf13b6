"""Exporter behaviour: JSONL round-trip, canonical encoding."""

from __future__ import annotations

import io

from repro.obs.events import EngineEventFired, FaultInjected, MonitorSampleTaken
from repro.obs.exporters import InMemoryExporter, JsonlExporter, encode_event, read_events

EVENTS = [
    EngineEventFired(time=0.1, name="tick"),
    MonitorSampleTaken(
        time=1.0,
        session="falcon-gd",
        duration_s=1.0,
        throughput_bps=9.5e9,
        loss_rate=0.002,
        concurrency=16,
        parallelism=2,
        pipelining=4,
        valid=True,
    ),
    FaultInjected(time=2.0, kind="outage", target="backbone", detail="down 5s"),
]


class TestJsonl:
    def test_file_round_trip_preserves_every_event(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        with JsonlExporter(path) as sink:
            for ev in EVENTS:
                sink.export(ev)
        assert read_events(path) == EVENTS

    def test_borrowed_stream_round_trip(self):
        buf = io.StringIO()
        sink = JsonlExporter(buf)
        for ev in EVENTS:
            sink.export(ev)
        sink.close()  # borrowed stream: flushed, not closed
        assert not buf.closed
        assert read_events(buf.getvalue().splitlines()) == EVENTS

    def test_encoding_is_canonical(self):
        line = encode_event(EngineEventFired(time=0.30000000000000004, name="tick"))
        # type first, field order, compact separators, shortest float repr.
        assert line == '{"type":"engine.event","time":0.30000000000000004,"name":"tick"}'

    def test_read_events_skips_blank_lines(self):
        lines = [encode_event(EVENTS[0]), "", "   ", encode_event(EVENTS[2])]
        assert read_events(lines) == [EVENTS[0], EVENTS[2]]

    def test_owned_file_is_closed_on_exit(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlExporter(path) as sink:
            sink.export(EVENTS[0])
            stream = sink._stream
        assert stream.closed


class TestInMemory:
    def test_collects_in_emission_order(self):
        mem = InMemoryExporter()
        for ev in EVENTS:
            mem.export(ev)
        assert mem.events == EVENTS
