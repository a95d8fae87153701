"""Shared benchmark-report harness.

Every experiment benchmark computes its paper-shaped table once (module
cache), registers it here, and the ``benchmarks/conftest.py`` terminal
hook prints all registered tables at the end of the run — so
``pytest benchmarks/ --benchmark-only`` emits both pytest-benchmark
timings and the experiment tables the paper reports.

Tables are also persisted under ``benchmarks/results/``, one text file
per experiment, so a table can be quoted and diffed verbatim.  Quick
smoke runs (``BENCH_QUICK=1``) write under the git-ignored
``benchmarks/results/quick/`` instead, so they never overwrite the
tracked full-size tables.
Before/after kernel timings additionally go to machine-readable
``BENCH_<experiment>.json`` files (:func:`write_bench_json`) so the
perf trajectory is tracked from change to change and CI uploads it as
an artifact.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).parent / "results"
if os.environ.get("BENCH_QUICK", "") == "1":
    RESULTS_DIR = RESULTS_DIR / "quick"


def env_metadata() -> dict:
    """Environment stamp for benchmark artifacts.

    Timings are only comparable within an environment; this records
    enough to tell apples from oranges across CI runs and machines.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "implementation": sys.implementation.name,
    }


def format_table(title: str, headers: list[str], rows: list[list]) -> str:
    """Render an aligned plain-text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [f"== {title} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def report(exp_id: str, title: str, headers: list[str], rows: list[list]) -> str:
    """Format, persist, and return an experiment table."""
    text = format_table(f"{exp_id}: {title}", headers, rows)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{exp_id}.txt").write_text(text + "\n")
    print("\n" + text)
    return text


def write_bench_json(exp_id: str, entries: list[dict], quick: bool = False) -> Path:
    """Persist machine-readable before/after kernel timings.

    Args:
        exp_id: experiment id, e.g. ``"E17"``.
        entries: one dict per measured kernel with keys ``op``, ``n``,
            ``before_s``, ``after_s``, ``speedup``.
        quick: True when run in CI smoke mode (smaller sizes).

    Returns:
        The path of the written ``BENCH_<exp_id>.json``.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{exp_id}.json"
    payload = {
        "experiment": exp_id,
        "quick": quick,
        "env": env_metadata(),
        "results": entries,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
