"""One pass of one workload, and the collection of passes into results.

A *pass* builds a workload from scratch, warms it up, and drives a fixed
number of operations in a closed loop from one process and one thread:
the next tick or query is issued when the previous one returns, and
tuple load is generated inside the program by its seeded per-tick source
draws, so there is no generator to fall behind.  Real passes run in a
fresh subprocess each (``python -m bench pass``); tests run them in
process.  The host calibration kernel is timed after every operation,
outside the operation's own timing (see :mod:`bench.metrics`).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from bench import metrics
from bench.spans import SpanRecorder

__all__ = [
    "Incorrect",
    "HostCalibration",
    "warm_host_memory",
    "run_pass",
    "collect",
    "summarise",
    "environment",
]

#: Conservation is checked every this many operations and at pass end.
BALANCE_EVERY = 100

#: ``--seconds`` buys one untraced pass per :data:`PASS_SECONDS` (a pass
#: measures 2 to 7 s, by workload), at least :data:`MIN_PASSES` and at
#: most :data:`MAX_PASSES`.  The count must not depend on how fast the
#: passes ran: the per-operation fastest timing of three passes is
#: lower than that of two.
PASS_SECONDS = 5.0
MIN_PASSES = 2
MAX_PASSES = 3

_ROOT = Path(__file__).resolve().parent.parent


class Incorrect(Exception):
    """The program's outputs failed a correctness check."""


def warm_host_memory(megabytes: int = 64) -> None:
    """Touch and release memory, before anything is timed.

    On a freshly restored microVM the first touch of a guest page is
    served by the host at as little as 12 MB/s (measured here: 40 s to
    fill 480 MB, 0.15 s the second time), and a pass grows by some 80 MB
    while it sets up: those stalls tripled ``setup_s`` for six seeds in a
    row.  Pages released here are the first ones the kernel hands back,
    so the stall is paid before the set-up timer starts.  Kept below
    every pass's own peak so that ``peak_rss_mb`` is unmoved.
    """
    np.ones(megabytes * 2**17)


class HostCalibration:
    """A fixed kernel made of what a tick or a placement is made of.

    Four parts, about 3 ms together: an interpreter loop over a small
    dict with small-array NumPy arithmetic; random look-ups in a Python
    dict and random gathers from an array, both too big for the L2
    cache; and a script of some twenty different tiny-array NumPy calls
    (a large code footprint).  Sizing showed that what slows this host
    slows cache-missing and large-footprint code more than a tight loop:
    with the first part alone the p50 of eight identical ``optimize_dht``
    passes ranged over 18 %, with all four over 11 %, and over 7 % once
    two passes are combined.  Long enough to time, short enough to run
    after every operation; about 8 MB resident.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20260926)
        self._a = rng.random(4096)
        self._q = rng.random(4096)
        self._table = {i: (i, float(i)) for i in range(25_000)}
        self._keys = [int(k) for k in rng.integers(0, 25_000, 3000)]
        self._big = rng.random(400_000)
        self._index = rng.integers(0, 400_000, 20_000)
        self._v = rng.random(64)
        self._w = rng.random(64)
        self._m = rng.random((16, 4))
        self._ints = rng.integers(0, 16, 64)
        self._points = [tuple(rng.random(3)) for _ in range(40)]

    def __call__(self) -> float:
        """Run the kernel once; returns its wall-clock in ms."""
        a, q, table, big, index = self._a, self._q, self._table, self._big, self._index
        v, w, m, ints, points = self._v, self._w, self._m, self._ints, self._points
        t0 = perf_counter()
        counts: dict[int, int] = {}
        for i in range(1000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        for _ in range(2):
            np.searchsorted(np.sort(a), q)
            (a * q).sum()
        total = 0.0
        for key in self._keys:
            total += table[key][1]
        big[index].sum()
        big[index[::-1]].sum()
        for _ in range(3):
            x = np.asarray(points[3])
            np.linalg.norm(x - np.asarray(points[7]))
            np.concatenate([v, w])
            np.unique(ints)
            np.argsort(v, kind="stable")
            np.bincount(ints, weights=v, minlength=16)
            np.einsum("md,md->m", m, m)
            np.clip(v, 0.2, 0.8)
            np.cumsum(w)
            np.flatnonzero(v > 0.5)
            np.add.at(np.zeros(16), ints, v)
            np.where(v > w, v, w)
            np.minimum(v[ints], w).max()
            np.sqrt(v).sum() + np.dot(v, w)
            np.full((8, 3), 2.0)
            np.arange(20)[::-1].copy()
            m.T @ m
            np.array([p[0] for p in points])
            np.isclose(v, w).any()
            min(points, key=lambda p: float(np.sum((np.asarray(p) - x) ** 2)))
            sorted(points)
        return 1e3 * (perf_counter() - t0)


def run_pass(workload: str, seed: int, scale: str, traced: bool, out_dir=None) -> dict:
    """Build, warm up, drive and check one pass; returns its raw record."""
    from bench import _api

    sizes = _api.SCALES[scale]
    calibrate = HostCalibration()
    recorder = SpanRecorder() if traced else None
    if recorder is not None:
        _api.instrument(recorder)
    try:
        warm_host_memory()
        started = perf_counter()
        w = _api.build(workload, sizes, seed, recorder)
        # From here on the collector may run only inside an operation.
        # A full collection is 20-28 ms here and comes every 44th round
        # of tenant_churn; left free to fire in the untimed glue or the
        # calibration kernel it vanished from one pass or the other, and
        # the slowest fifth read 9.3 or 11.6 ms by chance.  Allocations
        # in the glue still count towards the next collection; they are
        # a few per cent of an operation's own.  A full collection when
        # the window opens starts every pass's count from zero, so that
        # the same operations pay in every pass.
        gc.disable()
        warm_calib = []
        for i in range(-sizes.warmup[workload], 0):
            gc.enable()
            result = w.op(i)
            gc.disable()
            w.after(i, result)
            warm_calib.append(calibrate())
        setup_s = perf_counter() - started - 1e-3 * sum(warm_calib)
        gc.collect()
        w.begin()
        before = w.phases()
        op_ms, calib_ms = [], []
        for i in range(sizes.ops):
            if recorder is not None:
                recorder.trace_id = i
                recorder.on = True
            gc.enable()
            t0 = perf_counter()
            result = w.op(i)
            elapsed = perf_counter() - t0
            gc.disable()
            if recorder is not None:
                recorder.on = False
            w.after(i, result)
            op_ms.append(1e3 * elapsed)
            calib_ms.append(calibrate())
            if (i + 1) % BALANCE_EVERY == 0 and not w.balanced():
                raise Incorrect(f"{workload}: accounting unbalanced at op {i + 1}")
        if not w.balanced():
            raise Incorrect(f"{workload}: accounting unbalanced at end of pass")
        exact = w.exact()
        after = w.phases()
    finally:
        gc.enable()
        if recorder is not None:
            recorder.restore()
    off_wire = exact.get("off_wire")
    if w.failed:
        raise Incorrect(f"{workload}: {w.failed} of {sizes.ops} operations failed")
    record = {
        "nodes": sizes.nodes,
        "inputs_sha": w.inputs_sha(),
        "setup_s": setup_s,
        "warm_calib_ms": float(np.median(warm_calib)),
        "op_ms": op_ms,
        "calib_ms": calib_ms,
        "attempted": sizes.ops,
        "exact": exact,
        # Tick workloads: tuples not dropped / tuples taken off the
        # wire.  optimize_dht: circuits fully placed on alive nodes —
        # all of them, or the pass has failed above.
        "delivered_share": 1.0 - exact["dropped"] / off_wire if off_wire else 1.0,
        # The paper's yardstick, Σ rate × latency: measured from real
        # tuples per tick, or ground truth per placed circuit.
        "network_usage": (
            exact["data_usage"] / exact["ticks"]
            if "ticks" in exact
            else exact["placed_usage"] / exact["installs"]
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        phases = None
        if after is not None:
            phases = {path: total - before.get(path, 0.0) for path, total in after.items()}
        record["layers"] = metrics.per_layer(recorder, sizes.ops, exact, phases)
        record["missing"] = sorted(recorder.missing)
        if out_dir is not None:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            recorder.write_jsonl(Path(out_dir) / f"trace_{workload}.jsonl")
    return record


def _spawn_pass(workload: str, seed: int, scale: str, traced: bool, out_dir) -> dict:
    """Run one pass in a fresh single-threaded interpreter."""
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    command = [
        sys.executable, "-m", "bench", "pass",
        "--workload", workload, "--seed", str(seed), "--scale", scale,
        "--trace", str(int(traced)),
    ]  # fmt: skip
    if out_dir is not None:
        command += ["--out", str(out_dir)]
    done = subprocess.run(command, cwd=_ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise Incorrect(f"{workload}: pass exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def collect(
    workloads, seed: int, scale: str, seconds: float, trace: bool, out_dir=None, spawn=True
) -> dict[str, dict]:
    """Run the passes of ``workloads``, interleaved (A B C D, A B C D, ...).

    Each workload gets ``seconds / PASS_SECONDS`` untraced passes (at
    least :data:`MIN_PASSES`, at most :data:`MAX_PASSES`) and, with
    ``trace``, one traced pass more.  Raises :class:`Incorrect` when
    passes of one seed disagree on an exact counter, or when tracing
    changed one.
    """
    one_pass = _spawn_pass if spawn else run_pass
    count = max(MIN_PASSES, min(MAX_PASSES, round(seconds / PASS_SECONDS)))
    results = {name: {"passes": [], "traced": None} for name in workloads}
    for _ in range(count):
        for name in workloads:
            passes = results[name]["passes"]
            passes.append(one_pass(name, seed, scale, False, None))
            if passes[-1]["exact"] != passes[0]["exact"]:
                raise Incorrect(f"{name}: exact counters differ between passes of seed {seed}")
    if trace:
        for name in workloads:
            traced = one_pass(name, seed, scale, True, out_dir)
            if traced["exact"] != results[name]["passes"][0]["exact"]:
                raise Incorrect(f"{name}: tracing changed the program's exact counters")
            results[name]["traced"] = traced
    return results


def summarise(result: dict) -> dict:
    """Passes of one workload -> its reported metrics and provenance."""
    passes, traced = result["passes"], result["traced"]
    first = passes[0]
    summary = {
        "inputs_sha": first["inputs_sha"],
        "nodes": first["nodes"],
        "passes": len(passes),
        "ops_per_pass": first["attempted"],
        "attempted": sum(p["attempted"] for p in passes),
        "exact": first["exact"],
        "end_to_end": metrics.end_to_end(passes),
    }
    if traced is not None:
        layers = dict(traced["layers"])
        layers.update(metrics.trace_host_metrics(passes, traced))
        summary["per_layer"] = layers
        summary["missing_entry_points"] = traced["missing"]
    return summary


def environment() -> dict:
    """The env stamp written beside every result."""
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }
