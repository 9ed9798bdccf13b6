"""Docs cross-reference checker."""

from __future__ import annotations

from pathlib import Path

from repro.devtools.linkcheck import check_document, check_tree, main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestCheckDocument:
    def make_repo(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "real.md").write_text("# real\n")
        (tmp_path / "src" / "repro" / "sim").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "sim" / "engine.py").write_text("")
        return tmp_path

    def test_resolving_references_pass(self, tmp_path):
        root = self.make_repo(tmp_path)
        doc = root / "README.md"
        doc.write_text(
            "See [real](docs/real.md) and `src/repro/sim/engine.py`, "
            "package-relative `sim/engine.py`, and https://example.com.\n"
        )
        assert check_document(doc, root) == []

    def test_broken_markdown_link_is_reported(self, tmp_path):
        root = self.make_repo(tmp_path)
        doc = root / "README.md"
        doc.write_text("See [gone](docs/missing.md).\n")
        (finding,) = check_document(doc, root)
        assert "docs/missing.md" in finding

    def test_broken_backtick_path_is_reported(self, tmp_path):
        root = self.make_repo(tmp_path)
        doc = root / "README.md"
        doc.write_text("See `src/repro/gone.py`.\n")
        (finding,) = check_document(doc, root)
        assert "src/repro/gone.py" in finding

    def test_anchors_and_bare_names_are_ignored(self, tmp_path):
        root = self.make_repo(tmp_path)
        doc = root / "README.md"
        # Anchor suffix stripped; dotted module names and extensionless
        # prose like `a/b` never match the path pattern.
        doc.write_text(
            "See [real](docs/real.md#section), `repro.sim.engine`, a `n/p` ratio.\n"
        )
        assert check_document(doc, root) == []

    def test_planned_files_are_named_by_bare_name(self, tmp_path):
        root = self.make_repo(tmp_path)
        doc = root / "ROADMAP.md"
        # A file yet to be written is named bare, its directory apart;
        # neither form is a path reference.
        doc.write_text("Add a new `bench_e2e.py` under `benchmarks/`.\n")
        assert check_document(doc, root) == []
        # Written as a path, the same absent file is still a finding.
        doc.write_text("Add `benchmarks/bench_e2e.py`.\n")
        (finding,) = check_document(doc, root)
        assert "benchmarks/bench_e2e.py" in finding

    def test_missing_document_is_a_finding(self, tmp_path):
        assert check_tree(tmp_path, ("ABSENT.md",)) == ["ABSENT.md: document missing"]


class TestRepoDocs:
    def test_the_repos_own_docs_have_no_broken_references(self, capsys):
        # The same invariant the CI docs job enforces.
        assert main(["--root", str(REPO_ROOT)]) == 0
