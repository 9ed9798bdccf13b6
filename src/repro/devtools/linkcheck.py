"""Cross-reference checker for the repo's markdown documentation.

The docs lean on two kinds of references that silently rot:

* markdown links — ``[events.md](events.md)`` — resolved relative to
  the document that contains them;
* backticked repo paths — ```` `docs/events.md` ````, ```` `tests/obs/test_parity.py` ````
  — resolved relative to the repository root.

``python -m repro.devtools.linkcheck`` verifies both kinds point at
files that exist, so a rename or deletion fails CI instead of leaving
a dead pointer in README/DESIGN.  External URLs are ignored (no
network access in CI), as are module dotted paths and bare file names
without a directory component.

Planning documents such as ``ROADMAP.md`` are in scope too: a
backticked path there is a reference like any other.  A file that does
not exist yet (or has been removed) is named by its bare name, with its
directory named apart from it — "a new ``bench_e2e.py`` under
``benchmarks/``" — and gets its full path once it lands.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path
from typing import Sequence

#: Documents checked by default, relative to the repo root.
DEFAULT_DOCS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/architecture.md",
    "docs/benchmarks.md",
    "docs/events.md",
    "docs/observability.md",
    "docs/service.md",
)

#: ``[text](target)`` with an optional ``#anchor`` suffix.
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Backticked path: at least one directory component and a doc/code
#: extension, so prose like ``a/b`` ratios or dotted module names never
#: match.
_TICK_PATH = re.compile(r"`([\w.-]+(?:/[\w.-]+)+\.(?:py|md|json|toml|yml|txt))`")

_EXTERNAL = ("http://", "https://", "mailto:")


def check_document(doc: Path, root: Path) -> list[str]:
    """Return human-readable findings for one markdown file.

    Each finding is ``"<doc>: broken <kind> '<target>'"``; an empty
    list means every reference resolves.
    """
    findings: list[str] = []
    text = doc.read_text(encoding="utf-8")
    for match in _MD_LINK.finditer(text):
        target = match.group(1).split("#", 1)[0]
        if not target or target.startswith(_EXTERNAL):
            continue
        if not (doc.parent / target).is_file():
            findings.append(f"{doc.relative_to(root)}: broken link '{match.group(1)}'")
    for match in _TICK_PATH.finditer(text):
        target = match.group(1)
        # Docs refer to source files both repo-relative
        # (``src/repro/sim/engine.py``) and package-relative
        # (``sim/engine.py`` in a module-map context); accept either.
        bases = (root, root / "src", root / "src" / "repro")
        if not any((base / target).is_file() for base in bases):
            findings.append(f"{doc.relative_to(root)}: broken path reference '{target}'")
    return findings


def check_tree(root: Path, docs: Sequence[str] = DEFAULT_DOCS) -> list[str]:
    """Check every named document under ``root``; missing docs are findings too."""
    findings: list[str] = []
    for name in docs:
        doc = root / name
        if not doc.is_file():
            findings.append(f"{name}: document missing")
            continue
        findings.extend(check_document(doc, root))
    return findings


def _default_root() -> Path:
    """Repo root, assuming the installed layout ``<root>/src/repro/devtools/``."""
    return Path(__file__).resolve().parents[3]


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; exit 0 when every cross-reference resolves."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.linkcheck", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--root", default=None, help="repository root (default: inferred from this file)"
    )
    parser.add_argument(
        "docs", nargs="*", default=None, help="documents to check (default: the standard set)"
    )
    args = parser.parse_args(argv)
    root = Path(args.root).resolve() if args.root else _default_root()
    findings = check_tree(root, tuple(args.docs) if args.docs else DEFAULT_DOCS)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} broken cross-reference(s)")
        return 1
    print("all cross-references resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
