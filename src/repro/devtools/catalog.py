"""Generate (and verify) ``docs/lint.md`` from the check registry.

The registry in :mod:`repro.devtools.framework` is the single source
of truth; this module renders every registered check — code, name,
rationale (the check module's docstring), and the ``example_bad`` /
``example_good`` snippets — to markdown so the documented catalog can
never drift from the shipped checks.  CI runs ``python -m
repro.devtools.catalog --check``; after adding or changing a check,
regenerate with ``--write``.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

# Importing the checks package populates REGISTRY.
import repro.devtools.checks  # noqa: F401
from repro.devtools.framework import REGISTRY

HEADER = """\
# Lint code catalog

<!-- Generated by `python -m repro.devtools.catalog --write`.  Do not
edit by hand: CI verifies this file matches the check registry in
`src/repro/devtools/checks/`. -->

`repro lint` enforces the repository's reproducibility invariants.
Each check below is registered in `src/repro/devtools/checks/`; scopes
and knobs come from `[tool.repro-lint]` in `pyproject.toml`.  Findings
are suppressed with `# repro: lint-ok[CODE]: justification` on the
offending statement, or `# repro: lint-ok-file[CODE]: justification`
for a whole module whose purpose is the exception.

Useful invocations:

```console
$ repro lint src/repro                      # human output, exit 1 on findings
$ repro lint --format json                  # machine-readable findings
$ repro lint --sarif lint-results.sarif     # SARIF 2.1.0 for CI dashboards
$ repro lint --list-checks                  # the table below, one line each
```
"""


def _rationale(cls: type) -> str:
    """The check's rationale: its module docstring, first paragraph."""
    module = inspect.getmodule(cls)
    doc = (module.__doc__ or cls.__doc__ or "").strip()
    # First paragraph after the title line reads as the rationale; keep
    # the title too — it names the invariant.
    return doc


def render_catalog() -> str:
    """The full ``docs/lint.md`` markdown for the current registry."""
    parts = [HEADER]
    parts.append(f"\n{len(REGISTRY)} checks are registered.\n")
    parts.append("\n| code | name | summary |\n")
    parts.append("|---|---|---|\n")
    for code in sorted(REGISTRY):
        cls = REGISTRY[code]
        parts.append(f"| [{code}](#{code.lower()}--{cls.name}) | {cls.name} | {cls.description} |\n")
    for code in sorted(REGISTRY):
        cls = REGISTRY[code]
        parts.append(f"\n## {code} — {cls.name}\n")
        rationale = _rationale(cls)
        if rationale:
            parts.append(f"\n{rationale}\n")
        if cls.example_bad:
            parts.append("\nFlagged:\n\n```python\n")
            parts.append(cls.example_bad if cls.example_bad.endswith("\n") else cls.example_bad + "\n")
            parts.append("```\n")
        if cls.example_good:
            parts.append("\nAccepted:\n\n```python\n")
            parts.append(cls.example_good if cls.example_good.endswith("\n") else cls.example_good + "\n")
            parts.append("```\n")
    return "".join(parts)


def default_path() -> Path:
    """Where the catalog lives in a source checkout."""
    return Path(__file__).resolve().parents[3] / "docs" / "lint.md"


def main(argv: list[str] | None = None) -> int:
    """CLI: ``--write`` regenerates the doc, ``--check`` verifies it.

    Returns a process exit code (0 = in sync / written, 1 = drift).
    """
    parser = argparse.ArgumentParser(prog="python -m repro.devtools.catalog")
    parser.add_argument("--path", type=Path, default=default_path(), help="catalog markdown location")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="regenerate the code catalog")
    mode.add_argument("--check", action="store_true", help="fail if the catalog is stale")
    args = parser.parse_args(argv)

    rendered = render_catalog()
    if args.write:
        args.path.parent.mkdir(parents=True, exist_ok=True)
        args.path.write_text(rendered, encoding="utf-8")
        print(f"wrote {args.path}")
        return 0
    on_disk = args.path.read_text(encoding="utf-8") if args.path.is_file() else ""
    if on_disk != rendered:
        print(
            f"{args.path} is out of sync with the check registry; "
            "run `python -m repro.devtools.catalog --write`",
            file=sys.stderr,
        )
        return 1
    print(f"{args.path} is in sync ({len(REGISTRY)} checks)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
