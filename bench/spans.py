"""Spans recorded from outside the program, and the self-time arithmetic.

The benchmark never edits the program to trace it: :class:`SpanRecorder`
replaces a public entry point (a class attribute, a module attribute, or
a callable handed to a constructor) with a closure that notes ``name``,
``start``, ``end``, the enclosing span and the current operation's trace
id, then calls the original.  Spans stay in memory — five parallel
lists, one append each per call — and are written once, after the pass.

The process is single-threaded, so spans nest properly and a span's
*self time* is its duration minus the durations of its direct children
(:func:`self_times`).  Summing self times over every span of an
operation gives back the operation's root durations exactly; that is
what lets a layer's share be read as "what making it faster would save".
"""

from __future__ import annotations

import json
from time import perf_counter

__all__ = ["SpanRecorder", "self_times", "layer_of"]


def layer_of(span_name: str) -> str:
    """``core.optimizer.place_plan`` -> ``core.optimizer``."""
    return span_name.rsplit(".", 1)[0]


def self_times(start: list[float], end: list[float], parent: list[int]) -> list[float]:
    """Per-span self time: duration minus the part direct children cover.

    ``parent[i]`` is the index of the span that was open when span ``i``
    began, or -1 for a root.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


class SpanRecorder:
    """Wraps entry points; records spans only while :attr:`on` is set.

    Attributes:
        on: record spans (the measured window) or just pass calls
            through (set-up, warm-up, untimed glue).
        trace_id: identifier shared by the spans of one operation — the
            tick or query index; set by the driving loop.
        counts: named totals accumulated by the optional ``count`` hooks
            (work done as a count, measured where it happens).
        missing: entry points that could not be resolved by name.
    """

    def __init__(self, clock=perf_counter) -> None:
        self.on = False
        self.trace_id = -1
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.trace: list[int] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._clock = clock
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, bool, object]] = []

    def wrap(self, fn, name: str, count=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``count(args, result)``, when given, returns ``{counter: amount}``
        increments added to :attr:`counts` after each recorded call.
        """
        names, starts, ends = self.name, self.start, self.end
        parents, traces, stack = self.parent, self.trace, self._stack
        clock, counts = self._clock, self.counts

        def span(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            traces.append(self.trace_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                for key, amount in count(args, result).items():
                    counts[key] = counts.get(key, 0) + amount
            return result

        span.__wrapped__ = fn
        return span

    def patch(self, owner, attr: str, name: str, count=None) -> bool:
        """Replace ``owner.attr`` (class or module attribute) by its span.

        Resolution is by name at run time: an attribute that no longer
        exists is listed in :attr:`missing` and skipped.
        """
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(name)
            return False
        own = attr in vars(owner)
        self._patched.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, self.wrap(original, name, count))
        return True

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, own, original = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write_jsonl(self, path) -> None:
        """One JSON object per span: name, start, end, parent, trace."""
        with open(path, "w") as fh:
            for row in zip(self.name, self.start, self.end, self.parent, self.trace):
                fh.write(
                    json.dumps(
                        dict(zip(("name", "start", "end", "parent", "trace"), row))
                    )
                    + "\n"
                )
