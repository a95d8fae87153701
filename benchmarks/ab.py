"""Paired A/B verdict of the end-to-end benchmark between two commits.

    python benchmarks/ab.py BASE [HEAD] --workload W[,W2,...] --seeds 0-9

checks BASE (and HEAD, when given; the working tree otherwise) out into
a temporary directory with ``git archive``, then runs

    python3 -m bench --workload W --seed N --seconds S --trace 0

(``S`` is ``run_seconds`` from BENCHMARK.json) once per tree for every
seed, alternating which tree runs first from pair to pair (host drift
then hits both sides alike).  It prints, per metric, the parent and
change medians with their quartiles, the median per-pair change/parent
ratio, "change better in k of n" and, for each end-to-end metric, the
verdict of its bound (:func:`verdict`).  The exact metrics
(``bench.metrics.EXACT``) are compared pair by pair, exactly.  Exits 1
when any run reports ``correct: false`` or failures, an exact metric
differs within a pair, or an end-to-end metric is ``outside bound``
(:func:`exit_code`); an ``unresolved`` verdict is printed but passes.

``--workload`` takes a comma-separated list: the pairs then run
workload by workload, one table is printed per workload, and the exit
code is 1 when any workload's would be — a change's claimed workload
and the ones it must not move are one command.

With ``--trace 1`` the runs also report per-layer lines; every
count-valued one (unit ``1/op`` or ``count``, host and trace
bookkeeping excluded) that differs within any pair is listed with its
pairs — a refactor should move only timings, so a decision count that
moved is worth a look (a call count may move by design).

Timings only compare between runs made back to back on one host.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench.metrics import END_TO_END, EXACT, PER_LAYER  # noqa: E402

__all__ = [
    "parse_seeds", "parse_workloads", "parse_result", "summarize",
    "is_count_line", "verdict", "exit_code", "main",
]


def parse_seeds(spec: str) -> list[int]:
    """``"0-9"`` → 0..9, ``"1,4,7"`` → those, and mixes of both."""
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_workloads(spec: str) -> list[str]:
    """``"closed_loop"`` → that one, ``"a,b"`` → both, in order."""
    names = [name.strip() for name in spec.split(",")]
    if not all(names):
        raise ValueError(f"empty workload name in {spec!r}")
    return names


def parse_result(output: str) -> dict:
    """The JSON object a ``python3 -m bench`` run prints last."""
    return json.loads(output.strip().splitlines()[-1])


#: Metric name → ``"lower"`` / ``"higher"``.
BETTER = {
    **{name: row[1] for name, row in PER_LAYER.items()},
    **{name: row[1] for name, row in END_TO_END.items()},
}


#: Units of the count-valued per-layer lines.
COUNT_UNITS = ("1/op", "count")


def is_count_line(name: str, unit: str) -> bool:
    """Whether a metric is a count-valued per-layer line worth pairing:
    unit ``1/op`` or ``count``, not a ``host.*`` or ``trace.*`` line."""
    return unit in COUNT_UNITS and not name.startswith(("host.", "trace."))


def verdict(parent: np.ndarray, change: np.ndarray, better: str, bound: float) -> str:
    """``"within bound"``, ``"outside bound"`` or ``"unresolved"``.

    A lower-is-better metric is outside its bound when the change
    median exceeds the parent median × (1 + bound), a higher-is-better
    one when it falls below parent × (1 − bound).  When the parent's
    own quartile spread exceeds ``bound`` × its median, the runs are
    too noisy to judge (``"unresolved"``) unless every change run beats
    every parent run.
    """
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    mid = np.median(change)
    if better == "lower":
        beats_all = change.max() < parent.min()
        worse = mid > median * (1 + bound)
    else:
        beats_all = change.min() > parent.max()
        worse = mid < median * (1 - bound)
    if q3 - q1 > bound * abs(median) and not beats_all:
        return "unresolved"
    return "outside bound" if worse else "within bound"


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Judge ``(parent, change)`` result pairs.

    Returns ``{"rows": [...], "incorrect": n, "exact_mismatch": [...],
    "counts": n, "count_mismatch": [...]}`` where each row holds a
    metric's parent / change quartiles ``(q1, median, q3)``, the median
    per-pair ratio change/parent, the number of pairs in which the
    change was strictly better and, for an end-to-end metric, its
    :func:`verdict` (None for the others); ``counts`` is how many
    count-valued per-layer lines (:func:`is_count_line`) were compared
    and ``count_mismatch`` lists ``(name, [pair index, ...])`` for each
    that differs within some pair.
    """
    incorrect = sum(
        1 for pair in pairs for run in pair
        if not run.get("correct", False) or run.get("failed", 0)
    )
    names = [n for n in pairs[0][0]["metrics"] if all(
        n in run["metrics"] for pair in pairs for run in pair
    )]
    rows, mismatch, count_mismatch, counts = [], [], [], 0
    for name in names:
        a = np.array([p["metrics"][name]["value"] for p, _ in pairs], dtype=float)
        b = np.array([c["metrics"][name]["value"] for _, c in pairs], dtype=float)
        if name in EXACT:
            mismatch.extend((name, i) for i in np.flatnonzero(a != b).tolist())
        if is_count_line(name, pairs[0][0]["metrics"][name].get("unit", "")):
            counts += 1
            if (a != b).any():
                count_mismatch.append((name, np.flatnonzero(a != b).tolist()))
        ratio = float(np.median(b / a)) if a.all() else float("nan")
        way = better.get(name)
        wins = judged = None
        if way is not None:
            wins = int(((b < a) if way == "lower" else (b > a)).sum())
            if name in END_TO_END:
                judged = verdict(a, b, way, END_TO_END[name][2])
        rows.append({
            "name": name,
            "unit": pairs[0][0]["metrics"][name].get("unit", ""),
            "parent": tuple(np.percentile(a, [25, 50, 75]).tolist()),
            "change": tuple(np.percentile(b, [25, 50, 75]).tolist()),
            "ratio": ratio,
            "better": way,
            "wins": wins,
            "verdict": judged,
        })
    return {
        "rows": rows,
        "incorrect": incorrect,
        "exact_mismatch": mismatch,
        "counts": counts,
        "count_mismatch": count_mismatch,
    }


def exit_code(summary: dict) -> int:
    """1 when a :func:`summarize` result has an incorrect or failed run,
    an exact-metric mismatch or an end-to-end metric ``outside bound``;
    0 otherwise (``unresolved`` included)."""
    outside = any(row["verdict"] == "outside bound" for row in summary["rows"])
    return int(bool(summary["incorrect"] or summary["exact_mismatch"] or outside))


def _report(summary: dict, n: int) -> None:
    print(
        f"{'metric':<40} {'parent q1 / med / q3':>32} {'change q1 / med / q3':>32}"
        f" {'ratio':>7}  {'better':<24}  verdict"
    )
    for row in summary["rows"]:
        fmt = lambda q: " / ".join(f"{v:.4g}" for v in q)  # noqa: E731
        wins = "" if row["wins"] is None else f"change better in {row['wins']} of {n}"
        print(
            f"{row['name']:<40} {fmt(row['parent']):>32} {fmt(row['change']):>32}"
            f" {row['ratio']:>7.3f}  {wins:<24}  {row['verdict'] or ''}".rstrip()
        )
    exact = ", ".join(EXACT)
    if summary["exact_mismatch"]:
        print(f"exact metrics differ: {summary['exact_mismatch']}")
    else:
        print(f"exact metrics ({exact}) equal in all {n} pairs")
    if summary["count_mismatch"]:
        print("count-valued lines that differ (pair indices):")
        for name, where in summary["count_mismatch"]:
            print(f"  {name}: {where}")
    elif summary["counts"]:
        print(f"all {summary['counts']} count-valued lines equal in all {n} pairs")
    for judged in ("outside bound", "unresolved"):
        names = [row["name"] for row in summary["rows"] if row["verdict"] == judged]
        if names:
            print(f"{judged}: {', '.join(names)}")
    print(f"incorrect or failed runs: {summary['incorrect']}")


def _checkout(rev: str, into: Path) -> Path:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
    ).stdout
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def _run(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [
        "python3", "-m", "bench", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    try:
        return parse_result(out.stdout)
    except (IndexError, ValueError):
        raise RuntimeError(
            f"{' '.join(cmd)} in {tree} printed no result:\n{out.stderr[-2000:]}"
        ) from None


def _pairs(parent: Path, change: Path, workload: str, seeds, seconds: int, trace: int):
    """(parent, change) results per seed, alternating which runs first."""
    pairs = []
    for i, seed in enumerate(seeds):
        if i % 2:
            c = _run(change, workload, seed, seconds, trace)
            p = _run(parent, workload, seed, seconds, trace)
        else:
            p = _run(parent, workload, seed, seconds, trace)
            c = _run(change, workload, seed, seconds, trace)
        pairs.append((p, c))
        print(f"{workload} seed {seed}: pair {i + 1} of {len(seeds)} done", flush=True)
    return pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="parent revision")
    parser.add_argument("head", nargs="?", help="change revision (default: working tree)")
    parser.add_argument("--workload", required=True, help="one name, or several comma-separated")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = parse_workloads(args.workload)
    seeds = parse_seeds(args.seeds)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    code = 0
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        parent = _checkout(args.base, Path(tmp) / "base")
        change = _checkout(args.head, Path(tmp) / "head") if args.head else ROOT
        for workload in workloads:
            pairs = _pairs(parent, change, workload, seeds, seconds, args.trace)
            print(f"{workload}: parent {args.base}, change {args.head or 'working tree'}")
            summary = summarize(pairs, BETTER)
            _report(summary, len(pairs))
            code = max(code, exit_code(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
