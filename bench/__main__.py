"""``python -m bench`` — the repo's one end-to-end benchmark.

Three ways in:

* ``python -m bench [--seed N] [--out DIR]`` runs all four workloads
  (untraced passes interleaved, then one traced pass each), prints every
  metric by name with its unit, and writes ``DIR/results.json`` and
  ``DIR/trace_<workload>.jsonl``.
* ``python -m bench --workload W --seed N --seconds S --trace 0|1`` is
  the form ``BENCHMARK.json`` names: one workload, and as the last line
  of standard output one JSON object with ``correct``, ``attempted``,
  ``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
  the per-layer metrics with ``--trace 1``.
* ``python -m bench compare A.json B.json`` judges B against A.

Every form checks that the program's outputs are correct and exits
non-zero, writing no metrics, when they are not.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench import compare, metrics, runner

_DEFAULT_OUT = Path(__file__).resolve().parent / "out"


def _print_workload(name: str, summary: dict) -> None:
    print(
        f"\n== {name}  inputs_sha={summary['inputs_sha']}  nodes={summary['nodes']}  "
        f"passes={summary['passes']} x {summary['ops_per_pass']} ops  "
        f"attempted={summary['attempted']}  failed=0"
    )
    exact = summary["exact"]
    if "off_wire" in exact:
        print(
            f"   tuples off the wire {exact['off_wire']}, dropped {exact['dropped']} "
            f"(per pass, exact for the seed)"
        )
    for metric, row in summary["end_to_end"].items():
        raw = f"   raw {row['raw']:.4g}" if "raw" in row else ""
        print(
            f"   {metric:<18}{row['value']:>14.6g} {row['unit']:<8}"
            f"spread {100 * row['spread']:5.1f} %{raw}"
        )
    layers = summary.get("per_layer")
    if layers is None:
        return
    print(f"   -- per layer (traced pass, n={summary['ops_per_pass']} ops)")
    for metric, value in layers.items():
        print(f"   {metric:<40}{value:>14.6g} {metrics.PER_LAYER[metric][0]}")
    attributed = sum(layers[f"{layer}.self_ms"] for layer in metrics.LAYERS)
    print(
        f"   self_ms of all layers sum to {attributed:.4g} ms = "
        f"{100 * attributed / layers['trace.op_ms_mean']:.1f} % of trace.op_ms_mean"
    )
    print(f"   missing entry points: {', '.join(summary['missing_entry_points']) or 'none'}")


def _run(args) -> int:
    from bench import _api

    workloads = [args.workload] if args.workload else list(_api.WORKLOADS)
    trace = bool(args.trace) if args.workload else True
    try:
        mismatch = _api.twin_check()
        if mismatch is not None:
            raise runner.Incorrect(mismatch)
        results = runner.collect(
            workloads, args.seed, args.scale, args.seconds, trace, args.out, spawn=not args.in_process
        )
    except runner.Incorrect as failure:
        print(f"INCORRECT: {failure}", file=sys.stderr)
        return 1
    summaries = {name: runner.summarise(result) for name, result in results.items()}
    for name, summary in summaries.items():
        _print_workload(name, summary)
    if args.workload:
        # The contract line: exactly these four keys, metrics by kind.  A
        # failed operation is a failed run (above), so none is counted here.
        summary = summaries[args.workload]
        if trace:
            values = {
                metric: {"value": value, "unit": metrics.PER_LAYER[metric][0]}
                for metric, value in summary["per_layer"].items()
            }
        else:
            values = {
                metric: {"value": row["value"], "unit": row["unit"]}
                for metric, row in summary["end_to_end"].items()
            }
        line = {"correct": True, "attempted": summary["attempted"], "failed": 0, "metrics": values}
        print(json.dumps(line))
    else:
        document = {
            "seed": args.seed,
            "scale": args.scale,
            "env": runner.environment(),
            "workloads": summaries,
        }
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "results.json").write_text(json.dumps(document, indent=1) + "\n")
        print(f"\nwrote {out / 'results.json'}")
    return 0


def _pass(args) -> int:
    record = runner.run_pass(args.workload, args.seed, args.scale, bool(args.trace), args.out)
    print(json.dumps(record))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="python -m bench compare")
        parser.add_argument("base")
        parser.add_argument("change")
        args = parser.parse_args(argv[1:])
        return compare.main(args.base, args.change)
    one_pass = argv[:1] == ["pass"]
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None, help="one workload; default all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=15.0, help="one pass per 5 s, at least 2, at most 3"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="directory for results.json and traces")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full", help="smoke: tests only")
    parser.add_argument("--in-process", action="store_true", help="no subprocess per pass: tests only")
    args = parser.parse_args(argv[1:] if one_pass else argv)
    if one_pass:
        return _pass(args)
    args.out = args.out or _DEFAULT_OUT
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
