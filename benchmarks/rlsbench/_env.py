"""Locate the program under test.

The benchmark is run as plain scripts from a checkout that has no
installed ``repro`` package and no ``PYTHONPATH``, so the scripts put the
checkout's ``src/`` on ``sys.path`` themselves.  In a directory that holds
only the benchmark (no ``src/repro``) this exits non-zero before anything
is measured.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SRC = ROOT / "src"


def use_repo_sources() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"rlsbench: no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def definition() -> dict[str, Any]:
    """``BENCHMARK.json``: the one place names, units and bounds live."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)
