"""The overlay's hosting ledgers against a recount of its hosting record.

``Overlay._induced``, ``_memory`` and ``_hosted`` are kept incrementally
by every hosting call; ``_host_of`` is the one record behind them.  A
random sequence of installs, replacements, migrations (pinned services
included), liveness masks and uninstalls must leave the three arrays
equal to a recount of that record after every call, every record entry
priced from the installed circuit it names, and all three arrays back
at zero once nothing is installed.  A refused call writes nothing.

The usage index is checked the same way, over the same calls plus
link re-pricing (``Overlay.set_link_rates``): after every call its
segments tile its rows, every row is its circuit's current (source
host, target host, rate) and the one-dot usage equals the per-link
recount.  Re-pricing stays out of the ledger property, since a hosted
service keeps the price it was installed with.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.circuit import Service
from repro.network.topology import grid_topology
from repro.query.operators import ServiceSpec, processing_load, state_units
from repro.sbon.overlay import Overlay
from tests.unit.test_sbon import pinned_join_circuit

_N = 16
_NAMES = ("q", "r", "s")
_NODES = st.integers(0, _N - 1)
# (join host, aggregate host or None, source rate, window seconds)
_SHAPES = st.tuples(
    _NODES,
    st.none() | _NODES,
    st.sampled_from([0.0, 2.0, 10.0]),
    st.sampled_from([10.0, 50.0]),
)
_LIFECYCLE = (
    st.tuples(st.just("install"), st.sampled_from(_NAMES), _SHAPES),
    st.tuples(st.just("replace"), st.sampled_from(_NAMES), _SHAPES),
    # (service index into the sorted ids, target node or None for the
    # service's own node)
    st.tuples(
        st.just("migrate"), st.sampled_from(_NAMES), st.integers(0, 5),
        st.none() | _NODES,
    ),
    st.tuples(st.just("liveness"), st.sets(_NODES, max_size=3)),
    st.tuples(st.just("uninstall"), st.sampled_from(_NAMES)),
)
_CALLS = st.lists(st.one_of(*_LIFECYCLE), max_size=30)
# A circuit has 3 links, or 4 with its aggregate: a rate vector of
# another length is refused.
_RATES = st.tuples(
    st.just("rates"), st.sampled_from(_NAMES),
    st.lists(st.sampled_from([0.0, 0.5, 4.0, 12.5]), min_size=2, max_size=5),
)
_USAGE_CALLS = st.lists(st.one_of(*_LIFECYCLE, _RATES), max_size=30)


def _circuit(name, join_host, agg_host, rate, window):
    """``pinned_join_circuit``, plus an unpinned aggregate behind the join."""
    circuit = pinned_join_circuit(name=name, host=join_host, rate=rate, window=window)
    if agg_host is not None:
        spec = ServiceSpec.aggregate(window_seconds=window)
        circuit.add_service(Service(f"{name}/agg", spec, None, frozenset("AB")))
        circuit.add_link(f"{name}/join", f"{name}/agg", 1.0)
        circuit.assign(f"{name}/agg", agg_host)
    return circuit


def _state(overlay):
    """Everything a hosting or rate call may write, copied."""
    return (
        dict(overlay._host_of),
        overlay._induced.tolist(),
        overlay._memory.tolist(),
        overlay._hosted.tolist(),
        {name: dict(c.placement) for name, c in overlay.circuits.items()},
        overlay._u_src.tolist(),
        overlay._u_dst.tolist(),
        overlay._u_rate.tolist(),
        dict(overlay._u_seg),
        {name: [link.rate for link in c.links] for name, c in overlay.circuits.items()},
    )


def _call(overlay, error, fn, *args):
    """Run ``fn``; when ``error`` is expected, it must raise and write nothing."""
    if error is None:
        fn(*args)
        return
    before = _state(overlay)
    with pytest.raises(error):
        fn(*args)
    assert _state(overlay) == before


def _run(overlay, call):
    kind, *args = call
    alive = overlay.alive_mask()
    if kind == "liveness":
        mask = np.ones(_N, dtype=bool)
        mask[sorted(args[0])] = False
        overlay.apply_liveness(mask)
        return
    name = args[0]
    installed = overlay.circuits.get(name)
    if kind == "uninstall":
        _call(overlay, KeyError if installed is None else None, overlay.uninstall, name)
    elif kind == "rates":
        if installed is None:
            error = KeyError
        elif len(args[1]) != len(installed.links):
            error = ValueError
        else:
            error = None
        _call(overlay, error, overlay.set_link_rates, name, args[1])
    elif kind == "migrate":
        if installed is None:
            _call(overlay, KeyError, overlay.apply_migration, name, f"{name}/join", 0)
            return
        ids = sorted(installed.services)
        sid = ids[args[1] % len(ids)]
        node = installed.host_of(sid) if args[2] is None else args[2]
        if installed.services[sid].is_pinned:
            error = ValueError
        elif not alive[node]:
            error = RuntimeError
        else:
            error = None
        _call(overlay, error, overlay.apply_migration, name, sid, node)
    else:
        circuit = _circuit(name, *args[1])
        hosts = [circuit.host_of(sid) for sid in circuit.unpinned_ids()]
        if kind == "install":
            fn, error = overlay.install_circuit, ValueError if installed else None
        else:
            fn, error = overlay.replace_circuit, None if installed else KeyError
        if error is None and not alive[hosts].all():
            error = RuntimeError
        _call(overlay, error, fn, circuit)


def _check(overlay):
    induced, memory = np.zeros(_N), np.zeros(_N)
    hosted = np.zeros(_N, dtype=np.int64)
    for (name, sid), (node, load, units) in overlay._host_of.items():
        # Every entry names an unpinned service of an installed circuit,
        # on the node the circuit places it, priced at its input rate.
        circuit = overlay.circuits[name]
        assert sid in circuit.unpinned_ids()
        assert node == circuit.host_of(sid)
        spec, rate = circuit.services[sid].spec, circuit.input_rate(sid)
        assert (load, units) == (processing_load(spec, rate), state_units(spec, rate))
        induced[node] += load
        memory[node] += units
        hosted[node] += 1
    np.testing.assert_allclose(overlay._induced, induced, rtol=0, atol=1e-9)
    np.testing.assert_allclose(overlay._memory, memory, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(overlay._hosted, hosted)
    if not overlay.circuits:
        assert overlay._host_of == {}
        np.testing.assert_allclose(overlay._induced, 0.0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(overlay._memory, 0.0, rtol=0, atol=1e-9)
        assert not overlay._hosted.any()


def _check_usage(overlay):
    """The usage index against the installed circuits it indexes."""
    rows = overlay._u_rate.size
    assert overlay._u_src.size == overlay._u_dst.size == rows
    assert set(overlay._u_seg) == set(overlay.circuits)
    end = 0
    for base, count in sorted(overlay._u_seg.values()):
        assert base == end
        end += count
    assert end == rows
    for name, (base, count) in overlay._u_seg.items():
        circuit = overlay.circuits[name]
        assert count == len(circuit.links)
        for row, link in enumerate(circuit.links, start=base):
            assert (
                overlay._u_src[row], overlay._u_dst[row], overlay._u_rate[row]
            ) == (circuit.host_of(link.source), circuit.host_of(link.target), link.rate)
    assert overlay.total_network_usage() == pytest.approx(
        overlay.total_network_usage_scalar(), rel=1e-9, abs=1e-9
    )


@pytest.fixture(scope="module")
def build():
    base = Overlay.build(grid_topology(4, 4), vector_dims=2, embedding_rounds=20, seed=0)
    return lambda: Overlay(base.latencies, base.cost_space, base.topology)


@settings(max_examples=200, deadline=None)
@given(calls=_CALLS)
# A pinned sink "moved" to its own node must be refused: hosting it
# left load that uninstall never released.
@example(calls=[("install", "q", (5, None, 10.0, 50.0)), ("migrate", "q", 1, None),
                ("uninstall", "q")])
# A failure drops the hosted join; migrating it back re-hosts it once.
@example(calls=[("install", "q", (5, 6, 10.0, 50.0)), ("liveness", {5}),
                ("liveness", set()), ("migrate", "q", 1, None), ("uninstall", "q")])
def test_ledgers_equal_a_recount_after_every_call(build, calls):
    overlay = build()
    _check(overlay)
    for call in calls:
        _run(overlay, call)
        _check(overlay)
    for name in list(overlay.circuits):
        overlay.uninstall(name)
    _check(overlay)


@settings(max_examples=200, deadline=None)
@given(calls=_USAGE_CALLS)
# An uninstall closes its segment: the later segment moves down.
@example(calls=[("install", "q", (5, None, 10.0, 50.0)),
                ("install", "r", (6, 7, 2.0, 10.0)), ("uninstall", "q")])
# A re-price rewrites the circuit's rates.
@example(calls=[("install", "q", (5, None, 10.0, 50.0)),
                ("rates", "q", [0.5, 4.0, 12.5])])
# A migration rewrites the moved service's endpoints.
@example(calls=[("install", "q", (5, 6, 10.0, 50.0)), ("migrate", "q", 1, 9)])
def test_usage_rows_equal_their_circuits_after_every_call(build, calls):
    overlay = build()
    _check_usage(overlay)
    for call in calls:
        _run(overlay, call)
        _check_usage(overlay)
    for name in list(overlay.circuits):
        overlay.uninstall(name)
    _check_usage(overlay)
