"""Properties of the calendar-queue transport.

* The array transport delivers, buffers, counts and re-addresses exactly
  like its per-tuple heap twin under random interleavings of every
  public call, at every retransmit-buffer bound.
* The calendar's own bookkeeping recounts exactly every tick of a long
  chaos run with tenant churn, and its row pool stays bounded.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.network.dynamics import ChurnProcess, LatencyDriftProcess, LoadProcess
from repro.network.topology import random_geometric_topology
from repro.runtime.dataplane import DataPlane, RuntimeConfig
from repro.runtime.oracle import HeapTransport
from repro.runtime.transport import ArrayTransport
from repro.sbon.overlay import Overlay
from repro.sbon.simulator import Simulation, SimulationConfig
from repro.workloads.queries import WorkloadParams, random_query

NUM_OPS = 6
WIDE = 40_000  # more ticks than the int16 radix keys of a send can span

# Arrival offsets relative to the current tick: late, zero-delay, near
# future, and far enough to force the wide-span grouping path.
offsets = st.sampled_from([-3, -1, 0, 0, 1, 2, 5, WIDE, WIDE + 7])
wire_tuples = st.tuples(
    offsets,
    st.integers(0, NUM_OPS - 1),  # op
    st.integers(0, 1),  # port
    st.integers(0, 40),  # key
)
sends = st.tuples(st.just("send"), st.lists(wire_tuples, max_size=12))
# Repeated same-tick calls (0), the next tick, skipped ticks, and a jump
# long enough to take the calendar's key-scan path.
dues = st.tuples(
    st.just("due"),
    st.sampled_from([0, 0, 1, 1, 3, WIDE + 10]),
    st.sets(st.integers(0, NUM_OPS - 1), max_size=2),  # ops bound for dead hosts
)
remaps = st.tuples(
    st.just("remap"),
    st.lists(st.integers(-1, NUM_OPS - 1), min_size=NUM_OPS, max_size=NUM_OPS),
    st.one_of(
        st.none(),
        st.tuples(
            st.integers(0, NUM_OPS - 1),  # op being split
            st.lists(st.integers(0, NUM_OPS - 1), min_size=1, max_size=3),
            st.sampled_from([None, 0, 1]),  # port override
        ),
    ),
)
redelivers = st.tuples(
    st.just("redeliver"), st.lists(st.booleans(), min_size=NUM_OPS, max_size=NUM_OPS)
)
steps = st.lists(st.one_of(sends, sends, dues, dues, remaps, redelivers), max_size=40)


def _columns(rows, dtypes=(np.int64,) * 5 + (np.float64, np.int64)):
    cols = list(zip(*rows)) if rows else [()] * 7
    return [np.asarray(c, dtype=d) for c, d in zip(cols, dtypes)]


def _canonical(entries):
    """(op, port, key, ts, size, seq) tuples in the plane's (op, port, seq) order."""
    return sorted(entries, key=lambda e: (e[0], e[1], e[5]))


def _assert_twins_agree(arr, heap):
    for name in ("sent", "delivered", "dropped", "in_flight", "buffered"):
        assert getattr(arr, name) == getattr(heap, name), name
    assert sorted(arr.inflight_seqs()) == sorted(heap.inflight_seqs())
    assert sorted(arr.buffered_seqs()) == sorted(heap.buffered_seqs())
    assert np.array_equal(arr.buffered_by_op(NUM_OPS), heap.buffered_by_op(NUM_OPS))
    assert arr.sent == arr.delivered + arr.in_flight + arr.buffered
    assert arr.check_calendar() == arr.in_flight


@settings(max_examples=150, deadline=None)
@given(steps=steps, max_buffer=st.sampled_from([0, 3, 4096]))
def test_array_transport_equals_heap_twin(steps, max_buffer):
    # With max_buffer=0 every buffer() call overflows.
    arr, heap = ArrayTransport(max_buffer=max_buffer), HeapTransport(max_buffer)
    now = 0
    seq = 0
    for step in steps:
        if step[0] == "send":
            rows = []
            for offset, op, port, key in step[1]:
                rows.append((now + offset, op, port, key, now, 1.0 + key / 4, seq))
                seq += 1
            arr.send(*_columns(rows))
            for arrival, op, port, key, ts, size, s in rows:
                heap.send_one(arrival, 1, s, op, port, key, ts, size)
        elif step[0] == "due":
            now += step[1]
            batch = arr.due(now)
            got = (
                []
                if batch is None
                else list(zip(*(batch[c].tolist() for c in ArrayTransport._COLUMNS)))
            )
            want = [
                (op, port, key, ts, size, s)
                for _, _, s, op, port, key, ts, size in heap.due(now, 1)
            ]
            got, want = _canonical(got), _canonical(want)
            assert got == want
            dead = [e for e in got if e[0] in step[2]]
            if dead:
                op, port, key, ts, size, s = _columns(
                    dead, (np.int64,) * 4 + (np.float64, np.int64)
                )
                overflow = arr.buffer(op, port, key, ts, size, s)
                accepted = [heap.buffer_one(*e) for e in dead]
                # First come, first buffered: a canonical-order prefix.
                assert accepted == sorted(accepted, reverse=True)
                assert overflow == accepted.count(False)
        elif step[0] == "remap":
            mapping = np.asarray(step[1], dtype=np.int64)
            split = None
            if step[2] is not None:
                old, targets, port = step[2]
                split = {old: (np.asarray(targets, dtype=np.int64), port)}
            assert arr.remap_ops(mapping, split) == heap.remap_ops(mapping, split)
        else:
            alive = np.asarray(step[1], dtype=bool)
            assert arr.redeliver(alive, now) == heap.redeliver(alive, now)
        _assert_twins_agree(arr, heap)


def test_calendar_recounts_and_stays_bounded_under_chaos_with_tenant_churn():
    """2000 ticks of drift + node churn + migrations + a tenant a tick.

    Tenants pin their producers and consumer to the protected first half
    of the overlay, so an arriving tenant never finds its pinned host
    down; two standing circuits pin anywhere, so node churn parks their
    tuples in the retransmit buffer.  A 2.5 ms tick spreads the link
    latencies over ~20 calendar slots.
    """
    nodes, edge, tenants, ticks = 36, 18, 8, 2000
    topology = random_geometric_topology(nodes, radius=0.37, seed=0)
    overlay = Overlay.build(topology, vector_dims=2, embedding_rounds=30, seed=0)
    plane = DataPlane(
        overlay,
        RuntimeConfig(seed=4, node_capacity=60.0, reliable=True, tick_ms=2.5),
    )
    sim = Simulation(
        overlay,
        load_process=LoadProcess(nodes, mean_load=0.15, sigma=0.05, seed=1),
        latency_drift=LatencyDriftProcess(overlay.latencies, drift_sigma=0.02, seed=2),
        churn=ChurnProcess(
            nodes, fail_prob=0.01, recover_prob=0.2, protected=set(range(edge)), seed=3
        ),
        config=SimulationConfig(reopt_interval=5, migration_threshold=0.01),
        data_plane=plane,
    )
    params = WorkloadParams(
        num_producers=2, rate_bounds=(3.0, 8.0), selectivity_bounds=(0.2, 0.6)
    )

    def install(name, seed, pin_below):
        query, stats = random_query(pin_below, params, name=name, seed=seed)
        overlay.install(overlay.integrated_optimizer().optimize(query, stats))

    for i in range(2):
        install(f"standing{i}", 1000 + i, nodes)
    for i in range(tenants):
        install(f"t{i}", i, edge)
    peak = warm_top = dead_seen = redelivered = 0
    for tick in range(ticks):
        overlay.uninstall(f"t{tick}")
        install(f"t{tick + tenants}", tick + tenants, edge)
        record = sim.step()
        transport = plane._transport
        assert transport.check_calendar() == transport.in_flight
        assert plane.accounting()["balanced"]
        peak = max(peak, transport.in_flight)
        dead_seen = max(dead_seen, transport._dead)
        redelivered += record.redelivered
        if tick == ticks // 4:
            warm_top = transport._top
    # The run exercised what it claims to: uninstall drops left dead
    # rows in their slots, and the retransmit buffer released tuples.
    assert dead_seen > 0 and redelivered > 0
    # Rows are recycled, not leaked: the high-water mark set during the
    # first quarter holds (a burst may still nudge it) and stays within
    # twice the live peak although dead rows keep their slots.
    assert transport._top <= 1.1 * warm_top
    assert transport._top <= 2 * peak

    for name in list(overlay.circuits):
        overlay.uninstall(name)
    for _ in range(3):
        sim.step()
    assert transport.in_flight == 0 and transport.buffered == 0
    assert transport.check_calendar() == 0
    assert plane.accounting()["balanced"]
