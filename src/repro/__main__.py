"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``optimize``  — build an overlay, draw (or describe) a query, and run
  the integrated optimizer; prints the candidate plans, the winner, and
  the two-step comparison.
* ``simulate``  — install a random workload and run the tick simulator
  with load drift and periodic re-optimization; ``--data-plane``
  additionally executes every circuit on live tuple streams and
  reports measured traffic (deliveries, drops, latency percentiles);
  ``--reliable`` buffers tuples bound to failed nodes for
  retransmission instead of dropping them; ``--control`` closes the
  loop — measured rates calibrate the re-optimizer's prices and policy
  breaches trigger backpressure-aware re-placements; ``--cpu-cost``
  prices every tuple with the per-operator CPU cost model (joins ≫
  relays) so backpressure, shedding, and the controller's load
  write-back all gate on one cost currency.
* ``execute``   — optimize a query, install the winning circuit alone
  and run it on the data plane, validating the cost model against
  measured traffic.
* ``topology``  — generate a topology and print its statistics.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.costs import GroundTruthEvaluator
from repro.network.dynamics import LoadProcess
from repro.network.topology import (
    TransitStubParams,
    random_geometric_topology,
    transit_stub_topology,
)
from repro.sbon.overlay import Overlay
from repro.sbon.simulator import Simulation, SimulationConfig
from repro.workloads.queries import WorkloadParams, random_query, random_workload

__all__ = ["main"]


def _make_topology(args):
    if args.topology == "transit-stub":
        scale = max(1, round(args.nodes / 600))
        params = TransitStubParams(
            num_transit_domains=4 * scale if args.nodes >= 600 else 2,
            transit_nodes_per_domain=6 if args.nodes >= 600 else 3,
            stub_domains_per_transit_node=4 if args.nodes >= 600 else 2,
            nodes_per_stub_domain=6 if args.nodes >= 600 else 5,
        )
        return transit_stub_topology(params, seed=args.seed)
    return random_geometric_topology(args.nodes, seed=args.seed)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _build_overlay(args) -> Overlay:
    topology = _make_topology(args)
    print(
        f"overlay: {topology.num_nodes} nodes ({topology.name}), "
        f"embedding {args.dims}-D ..."
    )
    return Overlay.build(
        topology, vector_dims=args.dims, embedding_rounds=args.rounds, seed=args.seed
    )


def cmd_topology(args) -> int:
    topology = _make_topology(args)
    from repro.network.latency import LatencyMatrix

    lm = LatencyMatrix.from_topology(topology)
    print(f"name        : {topology.name}")
    print(f"nodes       : {topology.num_nodes}")
    print(f"links       : {len(topology.links)}")
    print(f"mean latency: {lm.mean_latency():.1f} ms")
    print(f"diameter    : {lm.max_latency():.1f} ms")
    if topology.node_tags:
        transit = len(topology.nodes_tagged("transit"))
        print(f"transit     : {transit} / stub: {topology.num_nodes - transit}")
    return 0


def cmd_optimize(args) -> int:
    overlay = _build_overlay(args)
    query, stats = random_query(
        overlay.num_nodes,
        WorkloadParams(num_producers=args.producers, clustered=args.clustered),
        seed=args.seed,
    )
    print(f"query: {args.producers} producers, consumer on node {query.consumer.node}")
    integrated = overlay.integrated_optimizer().optimize(query, stats)
    two_step = overlay.two_step_optimizer().optimize(query, stats)
    judge = GroundTruthEvaluator(overlay.latencies)
    print(f"\ncandidates evaluated: {integrated.placements_evaluated}")
    for candidate in sorted(integrated.candidates, key=lambda c: c.cost.total)[:5]:
        print(f"  {candidate.cost.total:10.1f}  {candidate.plan}")
    usage_i = judge.evaluate(integrated.circuit).network_usage
    usage_t = judge.evaluate(two_step.circuit).network_usage
    print(f"\nintegrated: usage {usage_i:10.1f}  {integrated.plan}")
    print(f"two-step  : usage {usage_t:10.1f}  {two_step.plan}")
    return 0


def cmd_simulate(args) -> int:
    overlay = _build_overlay(args)
    workload = random_workload(
        overlay.num_nodes,
        args.queries,
        WorkloadParams(num_producers=args.producers),
        seed=args.seed,
    )
    optimizer = overlay.integrated_optimizer()
    for query, stats in workload:
        overlay.install(optimizer.optimize(query, stats))
    print(f"installed {args.queries} circuits; initial usage "
          f"{overlay.total_network_usage():.1f}")
    obs = None
    want_obs = args.trace or args.profile or args.metrics_out is not None
    data_plane = None
    if (
        args.data_plane
        or args.control
        or args.reliable
        or args.cpu_cost
        or want_obs
    ):
        from repro.runtime import DataPlane, LoadModel, RuntimeConfig

        data_plane = DataPlane(
            overlay,
            RuntimeConfig(
                seed=args.seed,
                node_capacity=args.node_capacity,
                reliable=args.reliable,
                load_model=LoadModel() if args.cpu_cost else None,
            ),
        )
    if want_obs:
        from repro.obs import Observability

        obs = Observability(
            tracing=args.trace,
            trace_rate=args.trace_rate,
            metrics=args.metrics_out is not None,
            profiling=args.profile,
        )
    sim = Simulation(
        overlay,
        load_process=LoadProcess(overlay.num_nodes, seed=args.seed),
        config=SimulationConfig(reopt_interval=args.reopt_interval),
        data_plane=data_plane,
        control=bool(args.control),
        obs=obs,
    )
    series = sim.run(args.ticks)
    summary = series.summary()
    for key, value in summary.items():
        print(f"{key:15s}: {value:.1f}")
    if data_plane is not None:
        acct = data_plane.accounting()
        p95s = [r.latency_p95 for r in series.records if r.delivered]
        p95 = sum(p95s) / len(p95s) if p95s else 0.0
        print(f"{'measured usage':15s}: {data_plane.measured_usage_rate():.1f}")
        print(f"{'cpu cost/tick':15s}: {data_plane.measured_cpu_rate():.1f} "
              f"(peak node {data_plane.cpu_by_node.max() / max(sim.tick, 1):.1f}"
              f"{', unit model: cost == tuple count' if not args.cpu_cost else ''})")
        print(f"{'latency p95 ms':15s}: {p95:.0f} (mean over delivering ticks)")
        print(f"{'conservation':15s}: "
              f"{'balanced' if acct['balanced'] else 'IMBALANCED'} "
              f"(sent {acct['sent']} = off-wire {acct['transport_delivered']} "
              f"+ in flight {acct['in_flight']} + buffered {acct['buffered']}; "
              f"off-wire = processed {acct['processed']} "
              f"+ dropped {acct['dropped']})")
        if args.reliable:
            print(f"{'retransmission':15s}: {data_plane.redelivered} redelivered, "
                  f"{data_plane.dropped_overflow} overflowed, "
                  f"{acct['buffered']} still buffered")
    if sim.controller is not None:
        ctl = sim.controller
        print(f"{'control plane':15s}: {series.total_calibrated_links()} link rates "
              f"calibrated over {ctl.calibrations} passes, "
              f"{ctl.triggers} triggered re-placements "
              f"(drop ewma {ctl.drop_ewma:.3f})")
        if ctl.cpu_calibrations:
            print(f"{'cpu write-back':15s}: measured CPU load fed to placement "
                  f"{ctl.cpu_calibrations} times "
                  f"(reference {ctl.cpu_reference():.0f} cost units/tick)")
        elif args.cpu_cost and ctl.cpu_reference() is None:
            print(f"{'cpu write-back':15s}: skipped — no cost-rate reference; "
                  f"pass --node-capacity so measured CPU load can reach "
                  f"placement")
    if obs is not None:
        if obs.tracer is not None:
            spans = obs.tracer.spans()
            print(f"{'tracing':15s}: {obs.tracer.num_events} events over "
                  f"{len(spans)} sampled spans "
                  f"(rate {obs.tracer.sample_rate:g})")
        if obs.profiler is not None:
            print("\n" + obs.profiler.report())
        if args.metrics_out is not None:
            written = obs.export(args.metrics_out)
            names = ", ".join(sorted(p.name for p in written.values()))
            print(f"\n{'telemetry':15s}: wrote {names} to {args.metrics_out}/")
    return 0


def cmd_execute(args) -> int:
    overlay = _build_overlay(args)
    query, stats = random_query(
        overlay.num_nodes,
        WorkloadParams(
            num_producers=args.producers,
            selectivity_bounds=(0.1, 0.5),
        ),
        seed=args.seed,
    )
    result = overlay.integrated_optimizer().optimize(query, stats)
    judge = GroundTruthEvaluator(overlay.latencies)
    estimated = judge.evaluate(result.circuit).network_usage
    print(f"plan: {result.plan}")
    print(f"estimated usage: {estimated:.1f}")
    from repro.runtime import DataPlane, RuntimeConfig

    overlay.install(result)
    plane = DataPlane(overlay, RuntimeConfig(seed=args.seed))
    records = [plane.step() for _ in range(args.ticks)]
    measured = plane.measured_usage_rate()
    delivered = plane.accounting()["delivered"]
    latency = sum(r.latency_p50 * r.delivered for r in records) / max(delivered, 1)
    print(f"measured usage : {measured:.1f} (ratio {measured / max(estimated, 1e-9):.3f})")
    print(f"delivered      : {delivered} tuples, "
          f"delivery-weighted tick-median latency {latency:.0f} ms")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cost-space query optimization for stream overlays "
        "(ICDE'05 reproduction)",
    )
    parser.add_argument("--nodes", type=int, default=99, help="overlay size")
    parser.add_argument(
        "--topology", choices=("transit-stub", "geometric"), default="transit-stub"
    )
    parser.add_argument("--dims", type=int, default=2, help="embedding dims")
    parser.add_argument("--rounds", type=int, default=40, help="Vivaldi rounds")
    parser.add_argument("--seed", type=int, default=0)

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("topology", help="generate a topology, print stats")

    p_opt = sub.add_parser("optimize", help="optimize one random query")
    p_opt.add_argument("--producers", type=int, default=4)
    p_opt.add_argument("--clustered", action="store_true")

    p_sim = sub.add_parser("simulate", help="run the tick simulator")
    p_sim.add_argument("--queries", type=int, default=4)
    p_sim.add_argument("--producers", type=int, default=3)
    p_sim.add_argument("--ticks", type=int, default=60)
    p_sim.add_argument("--reopt-interval", type=int, default=5)
    p_sim.add_argument(
        "--data-plane", action="store_true",
        help="execute installed circuits on live tuple streams",
    )
    p_sim.add_argument(
        "--node-capacity", type=float, default=None,
        help="CPU cost units a node accepts per tick (backpressure; "
        "tuples/tick without --cpu-cost; default unlimited)",
    )
    p_sim.add_argument(
        "--cpu-cost", action="store_true",
        help="price tuples with the per-operator CPU cost model (one "
        "load currency: relays/filters cost their flat base, joins "
        "c0 + c2*probes, aggregates c0 + c1*batch; backpressure, shed "
        "limits, and the controller's load write-back all gate on "
        "these cost units instead of raw tuple counts; implies "
        "--data-plane; with --control, pass --node-capacity too so "
        "the write-back has a cost-rate reference)",
    )
    p_sim.add_argument(
        "--control", action="store_true",
        help="close the loop: calibrate optimizer prices from measured "
        "rates and trigger re-placement on policy breaches "
        "(implies --data-plane)",
    )
    p_sim.add_argument(
        "--reliable", action="store_true",
        help="buffer tuples bound to failed nodes for retransmission "
        "instead of dropping them (implies --data-plane)",
    )
    p_sim.add_argument(
        "--trace", action="store_true",
        help="record hash-sampled tuple spans through the data plane "
        "(implies --data-plane; export with --metrics-out)",
    )
    p_sim.add_argument(
        "--trace-rate", type=float, default=0.01,
        help="fraction of wire tuples traced (default 0.01)",
    )
    p_sim.add_argument(
        "--profile", action="store_true",
        help="time simulator phases and data-plane kernel stages "
        "(implies --data-plane); prints the phase table",
    )
    p_sim.add_argument(
        "--metrics-out", metavar="DIR", default=None,
        help="export telemetry (metrics.prom/metrics.jsonl, plus "
        "traces.jsonl, profile.json, events.jsonl for the enabled "
        "instruments) under DIR; implies --data-plane",
    )

    p_exe = sub.add_parser("execute", help="run one circuit on the data plane")
    p_exe.add_argument("--producers", type=int, default=3)
    p_exe.add_argument("--ticks", type=_positive_int, default=2000)

    args = parser.parse_args(argv)
    handlers = {
        "topology": cmd_topology,
        "optimize": cmd_optimize,
        "simulate": cmd_simulate,
        "execute": cmd_execute,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
