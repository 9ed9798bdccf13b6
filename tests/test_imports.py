"""Start-up cost: ``import repro`` loads numpy and nothing else heavy.

scipy is imported only where the Bayesian optimizer and the HARP
baseline use it, and networkx is not a dependency at all.  Each check
runs in a fresh interpreter with both packages blocked in
``sys.modules``, which is also how the numpy-only CI jobs (lint, docs)
see the package.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Makes ``import scipy`` / ``import networkx`` raise ImportError.
BLOCK = "import sys; sys.modules['scipy'] = sys.modules['networkx'] = None\n"


def run_blocked(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-c", BLOCK + code, *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_import_loads_neither_scipy_nor_networkx():
    proc = run_blocked(
        "import repro.cli\n"
        "loaded = sorted(m for m, mod in sys.modules.items()\n"
        "                if mod is not None and m.split('.')[0] in ('scipy', 'networkx'))\n"
        "print(loaded)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "module, args",
    [
        ("repro", ["lint", "src/repro", "--sarif", "-"]),
        ("repro.obs.schema", ["--check"]),
        ("repro.devtools.catalog", ["--check"]),
        ("repro.devtools.linkcheck", []),
    ],
)
def test_numpy_only_commands_exit_zero(module, args):
    proc = run_blocked(
        f"import runpy; runpy.run_module({module!r}, run_name='__main__', alter_sys=True)",
        *args,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
