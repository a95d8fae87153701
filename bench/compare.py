"""``python -m bench compare A.json B.json`` — judge B against A.

One row per workload × end-to-end metric: both medians, their ratio with
its base, the bound, and a verdict.

* ``worse`` — B's median is worse than A's by more than the bound.
* ``improved`` — B is better by more than either side's pass spread.
* ``no worse`` — neither.
* ``unresolved`` — a side's pass spread is wider than the bound, so the
  medians cannot tell; metrics fixed by the seed have no spread and are
  compared exactly.

Below the rows, each workload's per-layer ``self_ms`` deltas, largest
first, so that a move names its layer.  Exits 1 when any row is worse.
"""

from __future__ import annotations

import json

from bench import metrics

__all__ = ["verdict", "main"]


def verdict(name: str, base: dict, change: dict) -> str:
    """Judge one end-to-end metric; ``base``/``change`` carry value and spread."""
    _, better, bound = metrics.END_TO_END[name]
    a, b = base["value"], change["value"]
    if a == b:
        return "no worse"
    if name not in metrics.EXACT and max(base["spread"], change["spread"]) > bound:
        return "unresolved"
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    if worse_by > bound:
        return "worse"
    if -worse_by > max(base["spread"], change["spread"]):
        return "improved"
    return "no worse"


def main(base_path: str, change_path: str) -> int:
    with open(base_path) as fh:
        base = json.load(fh)
    with open(change_path) as fh:
        change = json.load(fh)
    print(f"A = {base_path} (seed {base['seed']})   B = {change_path} (seed {change['seed']})")
    print(
        f"{'workload':<16}{'metric':<18}{'A':>12}{'B':>12}  {'B/A':>7}  "
        f"{'bound':>6}  verdict"
    )
    any_worse = False
    shared = [w for w in base["workloads"] if w in change["workloads"]]
    for workload in shared:
        a, b = base["workloads"][workload], change["workloads"][workload]
        if a["inputs_sha"] != b["inputs_sha"]:
            print(f"{workload}: inputs differ ({a['inputs_sha']} vs {b['inputs_sha']}) — not the same load")
        for name, (unit, _, bound) in metrics.END_TO_END.items():
            row_a, row_b = a["end_to_end"][name], b["end_to_end"][name]
            outcome = verdict(name, row_a, row_b)
            any_worse |= outcome == "worse"
            print(
                f"{workload:<16}{name:<18}{row_a['value']:>12.6g}{row_b['value']:>12.6g}  "
                f"{row_b['value'] / row_a['value']:>6.3f}x  {100 * bound:>5.0f}%  "
                f"{outcome}  [{unit}]"
            )
    for workload in shared:
        a = base["workloads"][workload].get("per_layer")
        b = change["workloads"][workload].get("per_layer")
        if a is None or b is None:
            continue
        deltas = sorted(
            (
                (b[f"{layer}.self_ms"] - a[f"{layer}.self_ms"], layer)
                for layer in metrics.LAYERS
                if a[f"{layer}.self_ms"] or b[f"{layer}.self_ms"]
            ),
            key=lambda row: -abs(row[0]),
        )
        print(
            f"\n{workload}: per-layer self_ms, A -> B (traced passes, raw ms per op; "
            f"host.calib_ms {a['host.calib_ms']:.3f} -> {b['host.calib_ms']:.3f})"
        )
        for delta, layer in deltas:
            print(
                f"   {layer:<24}{a[f'{layer}.self_ms']:>10.4f} -> "
                f"{b[f'{layer}.self_ms']:>10.4f}  {delta:>+9.4f}"
            )
    return 1 if any_worse else 0
