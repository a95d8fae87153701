"""Structured event log for control-plane decisions.

Controller decisions used to be invisible outside the aggregate
counters; the event log records each one as a small dict — calibration
passes, re-placement triggers (with the breach reason and the excluded
nodes), shed set/release, buffer-pressure evacuations — appended by the
controller when an :class:`~repro.obs.Observability` is attached.

Events are rare (a handful per tick at most), so plain Python appends
are fine here; the never-trace-in-hot-loop rule applies to per-tuple
work, not to per-decision work.
"""

from __future__ import annotations

import json

__all__ = ["EventLog"]


class EventLog:
    """Append-only list of ``{"tick", "kind", ...}`` event dicts."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, tick: int, kind: str, **fields) -> None:
        self.events.append({"tick": tick, "kind": kind, **fields})

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def to_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for event in self.events:
                fh.write(json.dumps(event) + "\n")
