"""Timeline reconstruction from event streams."""

from __future__ import annotations

from repro.analysis.timeline import build_timelines, load_timelines, summarize
from repro.experiments.common import launch_falcon, make_context
from repro.obs import InMemoryExporter, JsonlExporter, use_tracing
from repro.obs.events import (
    EngineEventFired,
    MonitorSampleTaken,
    OptimizerDecision,
    SessionComplete,
    SessionStart,
    UtilityEvaluated,
)
from repro.testbeds.presets import hpclab

SYNTHETIC = [
    SessionStart(time=0.0, session="s1", concurrency=2, parallelism=1),
    EngineEventFired(time=0.1, name="tick"),
    MonitorSampleTaken(time=1.0, session="s1", duration_s=1.0, throughput_bps=4e9, loss_rate=0.01),
    UtilityEvaluated(time=1.0, session="s1", utility=3.5, throughput_bps=4e9, loss_rate=0.01),
    OptimizerDecision(time=1.0, session="s1", optimizer="GradientDescent", concurrency=4, utility=3.5),
    SessionComplete(time=2.5, session="s1", good_bytes=1e9, lost_bytes=1e7, files=10),
]


class TestBuild:
    def test_folds_session_series(self):
        tls = build_timelines(SYNTHETIC)
        assert list(tls) == ["s1"]
        tl = tls["s1"]
        assert tl.started_at == 0.0
        assert tl.finished_at == 2.5
        assert tl.duration == 2.5
        assert tl.sample_times == [1.0]
        assert tl.throughput_bps == [4e9]
        assert tl.loss_rate == [0.01]
        assert tl.utilities == [3.5]
        assert tl.concurrency == [4]

    def test_sessionless_events_are_ignored(self):
        tls = build_timelines([EngineEventFired(time=0.1, name="tick")])
        assert tls == {}

    def test_summarize_counts_and_spans(self):
        rows = summarize(SYNTHETIC)
        by_type = {r.type: r for r in rows}
        assert [r.type for r in rows] == sorted(by_type)
        assert by_type["engine.event"].count == 1
        assert by_type["session.start"].first == 0.0
        assert by_type["session.complete"].last == 2.5


class TestEndToEnd:
    def test_real_trace_loads_into_timelines(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        with JsonlExporter(path) as sink, use_tracing(sink, InMemoryExporter()):
            ctx = make_context(seed=3)
            launch_falcon(ctx, hpclab(), kind="gd")
            ctx.engine.run_for(30.0)
        tls = load_timelines(path)
        (tl,) = tls.values()
        assert tl.started_at == 0.0
        assert len(tl.sample_times) == len(tl.throughput_bps) > 0
        assert len(tl.decision_times) == len(tl.concurrency) > 0
        assert all(t <= 30.0 for t in tl.sample_times)
