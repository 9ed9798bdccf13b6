"""``repro lint`` — the CLI front end of the invariant checker.

Kept inside :mod:`repro.devtools` so :mod:`repro.cli` stays a thin
dispatcher; the import cost is only paid when the subcommand runs.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import repro
from repro.devtools.config import LintConfig, load_config
from repro.devtools.findings import render_human, render_json
from repro.devtools.framework import REGISTRY, lint_paths


def default_paths() -> list[str]:
    """The installed ``repro`` package — lints the source tree it came from."""
    return [str(Path(repro.__file__).resolve().parent)]


def add_lint_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``lint`` subcommand on the main CLI's subparsers."""
    lint = sub.add_parser(
        "lint",
        help="run the repo-specific invariant checks (determinism, units, topology)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    lint.add_argument(
        "--select",
        default="",
        help="comma-separated check codes to run (default: all)",
    )
    lint.add_argument(
        "--ignore",
        default="",
        help="comma-separated check codes to skip",
    )
    lint.add_argument(
        "--no-config",
        action="store_true",
        help="ignore [tool.repro-lint] in pyproject.toml; use built-in defaults",
    )
    lint.add_argument(
        "--sarif",
        metavar="PATH",
        help="additionally write findings as SARIF 2.1.0 to PATH ('-' for stdout)",
    )
    lint.add_argument(
        "--list-checks",
        action="store_true",
        help="print the registered checks and exit",
    )
    lint.set_defaults(fn=cmd_lint)


def _codes(raw: str) -> tuple[str, ...]:
    return tuple(code.strip().upper() for code in raw.split(",") if code.strip())


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the checks; exit 1 iff any finding survives suppression."""
    if args.list_checks:
        for code in sorted(REGISTRY):
            check = REGISTRY[code]
            print(f"{code}  {check.name:<22} {check.description}")
        return 0

    paths = args.paths or default_paths()
    if args.no_config:
        config = LintConfig()
    else:
        config = load_config(Path(paths[0]))
    overrides = {}
    if args.select:
        overrides["select"] = _codes(args.select)
    if args.ignore:
        overrides["ignore"] = _codes(args.ignore)
    if overrides:
        config = config.with_(**overrides)

    findings = lint_paths(paths, config=config)

    if args.sarif:
        from repro.devtools.sarif import render_sarif

        sarif_text = render_sarif(findings, tool_version=getattr(repro, "__version__", "0"))
        if args.sarif == "-":
            print(sarif_text)
        else:
            Path(args.sarif).write_text(sarif_text + "\n", encoding="utf-8")

    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_human(findings))
    return 1 if findings else 0
