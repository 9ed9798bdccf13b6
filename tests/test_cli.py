"""CLI tests."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, TESTBEDS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune", "hpclab"])
        assert args.optimizer == "gd"
        assert args.duration == 300.0

    def test_tune_options(self):
        args = build_parser().parse_args(
            ["tune", "xsede", "--optimizer", "bo", "--duration", "60", "--seed", "3"]
        )
        assert (args.optimizer, args.duration, args.seed) == ("bo", 60.0, 3)

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "fig07"])
        assert (args.experiment, args.out, args.quick) == ("fig07", None, False)

    def test_trace_options(self):
        args = build_parser().parse_args(["trace", "table1", "--out", "x.jsonl", "--quick"])
        assert (args.out, args.quick) == ("x.jsonl", True)

    def test_run_rejects_no_cache_with_cache_dir(self, capsys):
        # --no-cache would silently ignore the directory.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig07", "--no-cache", "--cache-dir", "x"])
        assert "not allowed with" in capsys.readouterr().err


class TestCommands:
    def test_list_testbeds(self, capsys):
        assert main(["list-testbeds"]) == 0
        out = capsys.readouterr().out
        for name in TESTBEDS:
            assert name in out

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "HPCLab" in capsys.readouterr().out

    def test_run_quick_applies_the_quick_profile(self, capsys):
        # fig07's quick profile cuts the horizon to 120 s: hill climbing
        # reaches 85% of max at 89 s there, at 238 s on the full horizon.
        assert main(["run", "fig07", "--quick", "--no-cache"]) == 0
        hc = next(
            line for line in capsys.readouterr().out.splitlines() if line.startswith("HC ")
        )
        assert hc.split()[1] == "89s"

    def test_tune_unknown_testbed(self, capsys):
        assert main(["tune", "nowhere"]) == 2
        assert "unknown testbed" in capsys.readouterr().out

    def test_tune_short_run(self, capsys):
        assert main(["tune", "hpclab", "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "steady throughput" in out
        assert "Gbps" in out

    def test_tune_profile_reports_subsystems(self, capsys):
        assert main(["tune", "hpclab", "--duration", "60", "--profile"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("fluid steps: ") for line in lines)
        rows = {line.split()[0] for line in lines if line.startswith("  ") and line.strip()}
        assert {"waterfill", "topology"} <= rows

    def test_export_table1(self, tmp_path, capsys):
        out = tmp_path / "t1.json"
        assert main(["export", "table1", "--out", str(out)]) == 0
        import json

        parsed = json.loads(out.read_text())
        assert len(parsed["rows"]) == 4

    def test_export_unknown(self, capsys):
        assert main(["export", "fig99"]) == 2

    def test_trace_unknown_experiment(self, capsys):
        assert main(["trace", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_trace_fig07_writes_jsonl_and_summary(self, tmp_path, capsys):
        out = tmp_path / "fig07.trace.jsonl"
        assert main(["trace", "fig07", "--quick", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "optimizer.decision" in captured.out  # event summary after the table
        from repro.obs import read_events

        events = read_events(out)
        assert events, "trace file must not be empty"
        assert any(ev.type == "session.start" for ev in events)
        # The stderr count is the number of decision records in the file.
        decisions = sum(ev.type == "optimizer.decision" for ev in events)
        assert decisions > 0
        assert f"{len(events)} events ({decisions} optimizer decisions)" in captured.err

    def test_every_experiment_module_importable(self):
        import importlib

        for module_path in EXPERIMENTS.values():
            module = importlib.import_module(module_path)
            assert hasattr(module, "main")
            assert hasattr(module, "run")
