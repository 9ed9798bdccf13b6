"""The ``repro lint`` CLI: exit codes, JSON output, selection flags."""

from __future__ import annotations

import json

from repro.cli import main
from repro.devtools.findings import Finding, render_human, render_json


def write_bad_module(tmp_path):
    """A module inside a virtual ``repro/sim`` tree with two violations."""
    target = tmp_path / "repro" / "sim"
    target.mkdir(parents=True)
    bad = target / "bad.py"
    bad.write_text("import random\nSCALE = 2 * 10**9\n", encoding="utf-8")
    return bad


def test_clean_tree_exits_zero(package_root, capsys):
    assert main(["lint", str(package_root)]) == 0
    assert "clean: no findings" in capsys.readouterr().out


def test_findings_exit_nonzero_with_location(tmp_path, capsys):
    bad = write_bad_module(tmp_path)
    assert main(["lint", str(bad), "--no-config"]) == 1
    out = capsys.readouterr().out
    assert f"{bad}:1:0: F001" in out
    assert "F004" in out


def test_json_output_is_parseable(tmp_path, capsys):
    bad = write_bad_module(tmp_path)
    assert main(["lint", str(bad), "--no-config", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert [f["code"] for f in payload["findings"]] == ["F001", "F004"]
    assert payload["findings"][0]["line"] == 1


def test_json_output_clean_tree(package_root, capsys):
    assert main(["lint", str(package_root), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"count": 0, "findings": []}


def test_select_and_ignore_flags(tmp_path, capsys):
    bad = write_bad_module(tmp_path)
    assert main(["lint", str(bad), "--no-config", "--select", "F002"]) == 0
    assert main(["lint", str(bad), "--no-config", "--ignore", "F001,F004"]) == 0
    assert main(["lint", str(bad), "--no-config", "--select", "f001"]) == 1
    capsys.readouterr()


def test_list_checks(capsys):
    assert main(["lint", "--list-checks"]) == 0
    out = capsys.readouterr().out
    for code in ("F001", "F002", "F003", "F004", "F005", "F006"):
        assert code in out


def test_directory_linting_recurses(tmp_path, capsys):
    write_bad_module(tmp_path)
    assert main(["lint", str(tmp_path), "--no-config"]) == 1
    assert "bad.py" in capsys.readouterr().out


def test_renderers_round_trip():
    finding = Finding(code="F001", message="boom", path="repro/sim/x.py", line=3, col=4)
    assert finding.render() == "repro/sim/x.py:3:4: F001 boom"
    human = render_human([finding])
    assert "1 finding" in human
    payload = json.loads(render_json([finding]))
    assert payload["findings"][0] == {
        "code": "F001",
        "message": "boom",
        "path": "repro/sim/x.py",
        "line": 3,
        "col": 4,
    }


def test_sarif_output_file(tmp_path, capsys):
    bad = write_bad_module(tmp_path)
    sarif_path = tmp_path / "out.sarif"
    assert main(["lint", str(bad), "--no-config", "--sarif", str(sarif_path)]) == 1
    capsys.readouterr()
    log = json.loads(sarif_path.read_text(encoding="utf-8"))
    assert log["version"] == "2.1.0"
    run_obj = log["runs"][0]
    assert run_obj["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = [rule["id"] for rule in run_obj["tool"]["driver"]["rules"]]
    for code in ("F001", "F009", "F010", "F011", "F012"):
        assert code in rule_ids
    results = run_obj["results"]
    assert [r["ruleId"] for r in results] == ["F001", "F004"]
    assert results[0]["locations"][0]["physicalLocation"]["region"]["startLine"] == 1


def test_sarif_rules_carry_examples(tmp_path, capsys):
    bad = write_bad_module(tmp_path)
    sarif_path = tmp_path / "out.sarif"
    main(["lint", str(bad), "--no-config", "--sarif", str(sarif_path)])
    capsys.readouterr()
    log = json.loads(sarif_path.read_text(encoding="utf-8"))
    rules = {r["id"]: r for r in log["runs"][0]["tool"]["driver"]["rules"]}
    assert "Bad:" in rules["F009"]["help"]["text"]
    assert "Good:" in rules["F009"]["help"]["text"]


def test_sarif_is_deterministic(tmp_path, capsys):
    bad = write_bad_module(tmp_path)
    a, b = tmp_path / "a.sarif", tmp_path / "b.sarif"
    main(["lint", str(bad), "--no-config", "--sarif", str(a)])
    main(["lint", str(bad), "--no-config", "--sarif", str(b)])
    capsys.readouterr()
    assert a.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")

