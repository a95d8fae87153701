"""Hierarchical phase profiler for the simulator and data-plane stages.

:class:`PhaseProfiler` is a stack of ``perf_counter`` timers.  Nested
:meth:`begin`/:meth:`end` pairs accumulate into slash-joined paths —
the simulator opens ``data_plane`` around the tick's data-plane call,
the data plane opens ``extract`` inside it, and the total lands under
``data_plane/extract`` — which is how one profiler instance threaded
through :class:`~repro.obs.Observability` yields the full phase tree
without the layers knowing about each other.

Cost discipline: a tick resolves its profiler once, and a tick with
none attached gets ``repro.runtime.dataplane.NO_PHASES``, whose
:meth:`begin`/:meth:`end` do nothing — so call sites carry no guard and
an unprofiled phase costs two empty method calls.  Attached, each phase
is two ``perf_counter`` calls plus a dict update.  The profiler only
*reads* the clock — it never touches simulation state or RNG, so
profiling is behaviorally unobservable (pinned by the obs property
suite).

:meth:`mark_tick` snapshots the running totals into a per-tick
breakdown; :meth:`report` renders the cumulative tree and
:meth:`to_json` exports both.
"""

from __future__ import annotations

import json
from time import perf_counter

__all__ = ["PhaseProfiler"]


class PhaseProfiler:
    """Nested named timers with per-tick deltas (see module docstring)."""

    def __init__(self) -> None:
        self._stack: list[tuple[str, float]] = []
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.per_tick: list[dict] = []
        self._last: dict[str, float] = {}

    def begin(self, name: str) -> None:
        """Open a phase; nested opens extend the path with ``/``."""
        self._stack.append((name, perf_counter()))

    def end(self) -> None:
        """Close the innermost open phase and accumulate its time."""
        t1 = perf_counter()
        name, t0 = self._stack.pop()
        if self._stack:
            path = "/".join(n for n, _ in self._stack) + "/" + name
        else:
            path = name
        self.totals[path] = self.totals.get(path, 0.0) + (t1 - t0)
        self.counts[path] = self.counts.get(path, 0) + 1

    def phase(self, name: str):
        """Context-manager sugar for offline (non-hot-loop) callers."""
        return _Phase(self, name)

    def mark_tick(self, tick: int) -> None:
        """Snapshot the per-phase time spent since the previous mark."""
        deltas = {
            path: total - self._last.get(path, 0.0)
            for path, total in self.totals.items()
            if total - self._last.get(path, 0.0) > 0.0
        }
        self.per_tick.append({"tick": tick, "phases": deltas})
        self._last = dict(self.totals)

    def summary(self) -> list[tuple[str, float, int]]:
        """(path, total seconds, calls), slowest first."""
        return sorted(
            ((p, t, self.counts[p]) for p, t in self.totals.items()),
            key=lambda row: -row[1],
        )

    def report(self) -> str:
        """Cumulative phase tree as an aligned plain-text table."""
        rows = self.summary()
        if not rows:
            return "(no phases recorded)"
        width = max(len(p) for p, _, _ in rows)
        lines = [f"{'phase'.ljust(width)}  {'total_s':>10}  {'calls':>8}"]
        for path, total, calls in rows:
            lines.append(f"{path.ljust(width)}  {total:>10.6f}  {calls:>8}")
        return "\n".join(lines)

    def to_json(self, path) -> None:
        """Export totals, call counts, and the per-tick breakdown."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "totals_s": self.totals,
                    "calls": self.counts,
                    "per_tick": self.per_tick,
                },
                fh,
                indent=2,
            )
            fh.write("\n")


class _Phase:
    __slots__ = ("_prof", "_name")

    def __init__(self, prof: PhaseProfiler, name: str) -> None:
        self._prof = prof
        self._name = name

    def __enter__(self):
        self._prof.begin(self._name)
        return self._prof

    def __exit__(self, *exc):
        self._prof.end()
        return False
