"""Command-line interface: ``python -m repro <command>``.

Seven subcommands cover the common workflows without writing code:

* ``simulate``  — run one experiment and print the measurements;
* ``sweep``     — sweep K, λ, or N and print the resulting series;
* ``dimension`` — the §5.3 recipe: given your rates, delay, and a
  timestamp byte budget, pick R and K and predict the error;
* ``theory``    — print the closed-form P_err(K) curve for an (R, X);
* ``node``      — run a real networked node (reliable UDP runtime),
  assembled by the :mod:`repro.api` factory;
* ``stats``     — render metrics JSONL exports (from ``node
  --metrics-path``, the simulator, or the metered soak) as tables;
* ``engines``   — list the clock schemes and detectors with their
  capability descriptors.

The ``--clock``/``--detector`` choices are read from
:data:`repro.core.clocks.SCHEMES` and :data:`repro.core.detector.DETECTORS`
and the ``node`` flag defaults from the config dataclasses, so neither
is typed a second time here.  ``node`` runs the paper's (n, r, k)
clock; ``simulate --clock`` picks any family.

Every command prints plain text; ``simulate --json`` emits a
machine-readable result instead.  A configuration the library rejects
ends in ``repro <command>: error: <message>`` and exit code 2.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import sys
from typing import List, Optional, Sequence

from repro.analysis.persistence import result_to_dict
from repro.api import (
    DISSEMINATION_MODES,
    AdaptivePolicy,
    LivenessPolicy,
    MembershipConfig,
    NodeConfig,
    create_node,
)
from repro.core.clocks import SCHEMES
from repro.core.detector import DETECTORS
from repro.core.errors import ConfigurationError, MembershipError
from repro.analysis.sweep import SweepPoint, sweep_parameter
from repro.analysis.tables import render_table
from repro.core.theory import (
    expected_concurrency,
    optimal_k,
    optimal_k_int,
    p_error,
    timestamp_overhead_bits,
)
from repro.sim import (
    GaussianDelayModel,
    PoissonWorkload,
    SimulationConfig,
    run_simulation,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Probabilistic causal message ordering (PaCT 2017) toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="run one simulated experiment")
    _add_simulation_arguments(simulate)
    simulate.add_argument("--json", action="store_true", help="emit JSON")
    simulate.add_argument(
        "--metrics-path", default=None, metavar="FILE",
        help="append one end-of-run metrics snapshot (JSONL) to FILE",
    )

    sweep = commands.add_parser("sweep", help="sweep one parameter")
    _add_simulation_arguments(sweep)
    sweep.add_argument(
        "--parameter", choices=("k", "lambda", "nodes"), required=True,
        help="which knob to sweep",
    )
    sweep.add_argument(
        "--values", required=True,
        help="comma-separated values, e.g. 1,2,4,8",
    )
    sweep.add_argument("--repeats", type=int, default=2, help="seeds per point")

    dimension = commands.add_parser(
        "dimension", help="pick R and K for a deployment (Section 5.3)"
    )
    dimension.add_argument("--nodes", type=int, required=True)
    dimension.add_argument(
        "--send-rate", type=float, required=True,
        help="broadcasts per second per node",
    )
    dimension.add_argument("--delay-ms", type=float, default=100.0)
    dimension.add_argument(
        "--budget-bytes", type=int, default=512,
        help="timestamp wire budget per message",
    )

    theory = commands.add_parser("theory", help="print the P_err(K) curve")
    theory.add_argument("--r", type=int, default=100)
    theory.add_argument("--x", type=float, default=20.0, help="concurrency X")
    theory.add_argument("--k-max", type=int, default=12)

    node = commands.add_parser(
        "node", help="run one networked node over the reliable UDP runtime"
    )
    node.add_argument("--id", default="node", help="this node's identity")
    node.add_argument("--listen", default="127.0.0.1:0", help="bind host:port")
    node.add_argument(
        "--peer", action="append", default=[], metavar="HOST:PORT",
        help="peer address to broadcast to (repeatable)",
    )
    node.add_argument("--r", type=int, default=NodeConfig.r)
    node.add_argument("--k", type=int, default=NodeConfig.k)
    node.add_argument(
        "--detector", choices=tuple(DETECTORS), default=NodeConfig.detector
    )
    node.add_argument(
        "--send", default="hello", help="payload prefix for the broadcasts"
    )
    node.add_argument("--count", type=int, default=5, help="broadcasts to send")
    node.add_argument(
        "--interval", type=float, default=0.2, help="seconds between broadcasts"
    )
    node.add_argument(
        "--duration", type=float, default=2.0,
        help="seconds to keep listening after the last broadcast",
    )
    node.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="crash-journal directory; restarting with the same DIR "
             "resumes the pre-crash causal state",
    )
    node.add_argument(
        "--heartbeat-interval", type=float, default=0.0, metavar="SECONDS",
        help="seconds between liveness heartbeats (0 disables the "
             "failure detector)",
    )
    node.add_argument(
        "--quarantine-after", type=float,
        default=LivenessPolicy.quarantine_after, metavar="SECONDS",
        help="peer silence after which it is quarantined",
    )
    node.add_argument(
        "--bootstrap", action="store_true",
        help="found a new group of one (the first node; later nodes "
             "--join it)",
    )
    node.add_argument(
        "--join", action="append", default=[], metavar="HOST:PORT",
        help="join the group through this running member (repeatable; "
             "enables the dynamic-membership layer)",
    )
    node.add_argument(
        "--join-timeout", type=float,
        default=MembershipConfig.join_timeout, metavar="SECONDS",
        help="seconds to wait for a JOIN_ACK before retrying",
    )
    node.add_argument(
        "--join-retries", type=int,
        default=MembershipConfig.join_retries, metavar="N",
        help="JOIN retransmissions after the first attempt",
    )
    node.add_argument(
        "--evict-after", type=float,
        default=MembershipConfig.evict_after, metavar="SECONDS",
        help="quarantine age after which the coordinator evicts a member "
             "from the view (0 disables; needs --heartbeat-interval)",
    )
    node.add_argument(
        "--adaptive", action="store_true",
        help="self-tune K at runtime: re-estimate the in-flight "
             "concurrency X from live telemetry and let the acting "
             "coordinator renegotiate the group's clock geometry via "
             "epoch bumps (needs --bootstrap or --join)",
    )
    node.add_argument(
        "--adaptive-band", default="%g:%g" % AdaptivePolicy.band,
        metavar="LOW:HIGH",
        help="target alert-rate band (alerts per delivery); the "
             "controller re-tiles K only when the measured rate "
             "leaves it",
    )
    node.add_argument(
        "--adaptive-interval", type=float,
        default=AdaptivePolicy.interval, metavar="SECONDS",
        help="seconds between adaptive-controller decisions",
    )
    node.add_argument(
        "--adaptive-k-max", type=int, default=AdaptivePolicy.k_max, metavar="K",
        help="upper bound on the renegotiated K",
    )
    node.add_argument(
        "--dissemination", choices=DISSEMINATION_MODES,
        default=NodeConfig.dissemination,
        help="how broadcasts spread: 'mesh' unicasts to every peer, "
             "'overlay' relays along per-origin eager trees over a "
             "bounded partial view (scales past the mesh; the gap pull "
             "and anti-entropy heal what a tree loses)",
    )
    node.add_argument(
        "--fanout", type=int, default=NodeConfig.fanout, metavar="N",
        help="eager links a node starts with (overlay dissemination only)",
    )
    node.add_argument(
        "--view-size", type=int, default=NodeConfig.view_size, metavar="N",
        help="bound on the gossip-maintained partial view (overlay "
             "dissemination only; must be >= --fanout)",
    )
    node.add_argument(
        "--metrics-path", default=None, metavar="FILE",
        help="append periodic metrics snapshots (JSONL) to FILE; "
             "render later with `repro stats FILE`",
    )
    node.add_argument(
        "--metrics-interval", type=float,
        default=NodeConfig.metrics_interval, metavar="SECONDS",
        help="seconds between JSONL snapshots",
    )
    node.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus text metrics on http://127.0.0.1:PORT/metrics "
             "(0 picks a free port)",
    )

    stats = commands.add_parser(
        "stats", help="render a metrics JSONL export as tables"
    )
    stats.add_argument(
        "paths", nargs="+", metavar="FILE",
        help="metrics JSONL file(s); several files (e.g. one per node) "
             "are merged into one fleet-wide view",
    )
    stats.add_argument("--json", action="store_true", help="emit the snapshot as JSON")
    stats.add_argument(
        "--prometheus", action="store_true",
        help="emit Prometheus text exposition format instead of tables",
    )

    commands.add_parser(
        "engines",
        help="list the clock schemes and detectors",
    )

    return parser


def _parse_host_port(value: str) -> tuple:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"expected HOST:PORT, got {value!r}")
    return (host, int(port))


def _add_simulation_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=60)
    parser.add_argument("--r", type=int, default=100)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument(
        "--clock", choices=tuple(SCHEMES), default="probabilistic"
    )
    parser.add_argument(
        "--assigner",
        choices=("random", "random-colliding", "perfect", "balanced-load",
                 "sequential", "hash"),
        default="random-colliding",
    )
    parser.add_argument(
        "--lambda-ms", type=float, default=1000.0,
        help="mean interval between one node's broadcasts",
    )
    parser.add_argument("--duration-ms", type=float, default=30_000.0)
    parser.add_argument("--delay-mean-ms", type=float, default=100.0)
    parser.add_argument("--delay-std-ms", type=float, default=20.0)
    parser.add_argument("--skew-std-ms", type=float, default=20.0)
    parser.add_argument(
        "--detector", choices=tuple(DETECTORS), default="basic"
    )
    parser.add_argument("--seed", type=int, default=0)


def _config_from_args(args: argparse.Namespace) -> SimulationConfig:
    return SimulationConfig(
        n_nodes=args.nodes,
        r=args.r,
        k=args.k,
        clock=args.clock,
        key_assigner=args.assigner,
        workload=PoissonWorkload(args.lambda_ms),
        delay_model=GaussianDelayModel(
            args.delay_mean_ms, args.delay_std_ms, args.skew_std_ms
        ),
        detector=args.detector,
        duration_ms=args.duration_ms,
        seed=args.seed,
        metrics_path=getattr(args, "metrics_path", None),
    )


def _command_simulate(args: argparse.Namespace) -> int:
    result = run_simulation(_config_from_args(args))
    if args.json:
        print(json.dumps(result_to_dict(result), indent=2, sort_keys=True))
        return 0
    print(result.summary())
    rows = [
        ["sent", result.sent],
        ["delivered (remote)", result.delivered_remote],
        ["eps_min", result.eps_min],
        ["eps_max", result.eps_max],
        ["alert rate", result.alerts.alert_rate],
        ["alert recall (late)", result.alerts.recall_late],
        ["latency mean (ms)", result.latency["mean"]],
        ["latency p99 (ms)", result.latency["p99"]],
        ["measured X", result.measured_concurrency],
        ["stuck pending", result.stuck_pending],
    ]
    print(render_table(["metric", "value"], rows))
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    base = _config_from_args(args)
    raw_values = [value.strip() for value in args.values.split(",") if value.strip()]

    if args.parameter == "k":
        values: List = [int(v) for v in raw_values]
        make = lambda cfg, v: dataclasses.replace(cfg, k=v)  # noqa: E731
    elif args.parameter == "nodes":
        values = [int(v) for v in raw_values]
        make = lambda cfg, v: dataclasses.replace(cfg, n_nodes=v)  # noqa: E731
    else:
        values = [float(v) for v in raw_values]
        make = lambda cfg, v: dataclasses.replace(  # noqa: E731
            cfg, workload=PoissonWorkload(v)
        )

    points = sweep_parameter(
        base, values, make, repeats=args.repeats, seed_base=args.seed + 1000
    )
    print(
        render_table(
            SweepPoint.ROW_HEADERS,
            [point.row() for point in points],
            title=f"sweep of {args.parameter}",
        )
    )
    return 0


def _command_dimension(args: argparse.Namespace) -> int:
    receive_rate = (args.nodes - 1) * args.send_rate
    x = expected_concurrency(receive_rate, args.delay_ms)
    r = max(1, (args.budget_bytes * 8) // 33)
    x_effective = max(x, 0.1)
    k = optimal_k_int(r, x_effective, k_max=min(r, 32))
    rows = [
        ["nodes", args.nodes],
        ["receive rate (msg/s)", receive_rate],
        ["concurrency X", x],
        ["vector size R", r],
        ["keys per process K", k],
        ["continuous K (ln2*R/X)", optimal_k(r, x_effective)],
        ["timestamp bytes", timestamp_overhead_bits(r, k) // 8],
        ["vector-clock bytes (for comparison)",
         timestamp_overhead_bits(max(args.nodes, 2), 1) // 8],
        ["predicted P_err", p_error(r, k, x_effective)],
    ]
    print(render_table(["quantity", "value"], rows, title="dimensioning"))
    return 0


def _command_theory(args: argparse.Namespace) -> int:
    rows = [
        [k, p_error(args.r, k, args.x)]
        for k in range(1, min(args.k_max, args.r) + 1)
    ]
    print(
        render_table(
            ["K", "P_err"],
            rows,
            title=f"P_err(R={args.r}, K, X={args.x}); "
            f"optimum ~ {optimal_k(args.r, args.x):.2f}",
        )
    )
    return 0


def _command_node(args: argparse.Namespace) -> int:
    host, port = _parse_host_port(args.listen)
    peer_addresses = [_parse_host_port(peer) for peer in args.peer]
    seed_addresses = [_parse_host_port(seed) for seed in args.join]
    if args.bootstrap and seed_addresses:
        raise ConfigurationError("--bootstrap and --join are mutually exclusive")
    liveness = membership = adaptive = None
    if args.heartbeat_interval:  # 0 leaves the failure detector off
        liveness = LivenessPolicy(
            heartbeat_interval=args.heartbeat_interval,
            quarantine_after=args.quarantine_after,
        )
    if args.bootstrap or seed_addresses:
        membership = MembershipConfig(
            seed_peers=tuple(seed_addresses),
            join_timeout=args.join_timeout,
            join_retries=args.join_retries,
            evict_after=args.evict_after,
        )
    if args.adaptive:
        try:
            low, high = (float(v) for v in args.adaptive_band.split(":"))
        except ValueError:
            raise ConfigurationError(
                f"--adaptive-band must be LOW:HIGH, got {args.adaptive_band!r}"
            ) from None
        adaptive = AdaptivePolicy(
            interval=args.adaptive_interval, band=(low, high), k_max=args.adaptive_k_max
        )
    config = NodeConfig(
        r=args.r,
        k=args.k,
        detector=args.detector,
        host=host,
        port=port,
        data_dir=args.data_dir,
        liveness=liveness,
        membership=membership,
        adaptive=adaptive,
        dissemination=args.dissemination,
        fanout=args.fanout,
        view_size=args.view_size,
        metrics_path=args.metrics_path,
        metrics_interval=args.metrics_interval,
        metrics_port=args.metrics_port,
    )

    async def run() -> int:
        try:
            node = await create_node(
                args.id,
                config,
                on_delivery=lambda record: print(
                    f"<- {record.message.sender}: {record.message.payload!r}"
                    + ("  [ALERT]" if record.alert else "")
                ),
            )
        except OSError as exc:
            print(f"cannot bind {host}:{port}: {exc}", file=sys.stderr)
            return 1
        except MembershipError as exc:
            print(f"cannot join the group: {exc}", file=sys.stderr)
            return 1
        print(f"listening on {node.local_address[0]}:{node.local_address[1]} "
              f"as {args.id!r} (R={config.r}, K={config.k})")
        if node.recovered is not None:
            print(f"recovered journal: send_seq={node.recovered.send_seq} "
                  f"({node.recovered.wal_records} WAL records replayed, "
                  f"detector checks={node.recovered.detector_checks} "
                  f"alerts={node.recovered.detector_alerts})")
        if node.metrics_server is not None:
            print(f"metrics: http://{node.metrics_server.host}:"
                  f"{node.metrics_server.port}/metrics")
        if node.membership is not None and node.membership.view is not None:
            view = node.membership.view
            print(f"group view {view.view_id}: "
                  f"{sorted(view.member_ids())} "
                  f"(keys={list(node.endpoint.clock.own_keys)})")
        for peer in peer_addresses:
            node.add_peer(peer)
        try:
            for i in range(args.count):
                await node.broadcast(f"{args.send}-{i}")
                await asyncio.sleep(args.interval)
            await asyncio.sleep(args.duration)
        finally:
            detector = node.endpoint.detector.stats
            print(
                f"delivered={node.endpoint.stats.delivered} "
                f"pending={node.endpoint.pending_count} "
                f"detector: checks={detector.checks} alerts={detector.alerts} "
                f"alert_rate={detector.alert_rate:.3e}"
            )
            stats = node.transport_stats()
            print(
                f"sent={stats.data_sent} received={stats.data_received} "
                f"retransmits={stats.retransmits} nacks={stats.nacks_sent} "
                f"drops={stats.drops} digests={stats.digests_sent} "
                f"heartbeats={stats.heartbeats_sent} "
                f"rtt={'%.4fs' % stats.rtt if stats.rtt is not None else 'n/a'}"
            )
            frames_per_datagram = (
                stats.frames_sent / stats.datagrams_sent
                if stats.datagrams_sent else 0.0
            )
            print(
                f"wire: datagrams={stats.datagrams_sent} "
                f"bytes={stats.bytes_sent} "
                f"frames/datagram={frames_per_datagram:.2f} "
                f"batches={stats.batches_sent} "
                f"acks piggybacked={stats.acks_piggybacked}"
                f"/{stats.acks_sent} "
                f"timestamps delta={stats.delta_sent}"
                f"/full={stats.full_sent}"
            )
            if node.overlay is not None:
                overlay = node.overlay
                print(
                    f"overlay: pushes={overlay.stats.relay_pushes} "
                    f"first-intake={overlay.stats.relay_first_intake} "
                    f"duplicates={overlay.stats.relay_duplicates} "
                    f"forwarded={overlay.stats.relay_forwarded} "
                    f"view={len(overlay)}/{overlay.view_size} "
                    f"diversity={overlay.sample_diversity():.2f}"
                )
            if node.membership is not None and node.membership.joined:
                # Graceful goodbye; a lost LEAVE is healed by eviction.
                await node.membership.leave()
            await node.close()
        return 0

    return asyncio.run(run())


def _command_stats(args: argparse.Namespace) -> int:
    from repro.obs import merge_snapshots, render_prometheus
    from repro.obs.registry import Histogram
    from repro.obs.export import last_snapshot

    snapshots = []
    for path in args.paths:
        try:
            snapshot = last_snapshot(path)
        except OSError as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 1
        if snapshot is None:
            print(f"no complete snapshot in {path}", file=sys.stderr)
            return 1
        snapshots.append(snapshot)
    merged = snapshots[0] if len(snapshots) == 1 else merge_snapshots(snapshots)
    if len(snapshots) > 1:
        # merge_snapshots() sums gauges; a fleet's delta- and repair-
        # health ratios are the ratios of the summed counters.
        counters = merged["counters"]
        misses = counters.get("repro_wire_delta_ref_misses_total", 0)
        for gauge, part, whole in (
            ("repro_delta_ref_miss_ratio", misses, misses + counters.get("repro_wire_delta_received_total", 0)),
            ("repro_antientropy_repair_duplicate_ratio",
             counters.get("repro_antientropy_repair_duplicates_total", 0),
             counters.get("repro_antientropy_repairs_sent_total", 0)),
        ):
            if gauge in merged["gauges"]:
                merged["gauges"][gauge] = part / whole if whole else 0.0

    if args.json:
        print(json.dumps(merged, indent=2, sort_keys=True))
        return 0
    if args.prometheus:
        sys.stdout.write(render_prometheus(merged))
        return 0

    labels = ", ".join(
        f"{key}={value}" for key, value in sorted(merged.get("labels", {}).items())
    )
    source = f"{len(args.paths)} file(s)" if len(args.paths) > 1 else args.paths[0]
    header = f"metrics from {source}"
    if labels:
        header += f"  [{labels}]"
    if "ts" in merged:
        header += f"  (ts={merged['ts']:.3f})"
    print(header)

    counters = merged.get("counters", {})
    gauges = merged.get("gauges", {})
    scalar_rows = [[name, value] for name, value in counters.items()]
    scalar_rows += [[name, value] for name, value in gauges.items()]
    if scalar_rows:
        print(render_table(["series", "value"], scalar_rows))
    histograms = merged.get("histograms", {})
    if histograms:
        rows = []
        for name, payload in histograms.items():
            histogram = Histogram.from_dict(payload)
            rows.append([
                name,
                histogram.count,
                f"{histogram.mean:.4g}",
                f"{histogram.quantile(0.50):.4g}",
                f"{histogram.quantile(0.95):.4g}",
                f"{histogram.quantile(0.99):.4g}",
            ])
        print(render_table(
            ["histogram", "count", "mean", "p50", "p95", "p99"], rows,
            title="quantiles are bucket-resolution estimates",
        ))
    return 0


def _summary(cls: type) -> str:
    """The first line of a class docstring, without reST markup."""
    return cls.__doc__.strip().splitlines()[0].replace("``", "")


def _command_engines(args: argparse.Namespace) -> int:
    clock_rows = []
    for name, family in SCHEMES.items():
        flags = [flag for flag in
                 ("needs_dense_index", "needs_key_assignment")
                 if getattr(family, flag)]
        clock_rows.append([
            name,
            family.fixed_r if family.fixed_r is not None else "free",
            family.fixed_k if family.fixed_k is not None else "free",
            ", ".join(flags) or "-",
            _summary(family),
        ])
    print(render_table(
        ["clock", "R", "K", "capabilities", "description"],
        clock_rows, title="clock schemes",
    ))

    detector_rows = [[name, _summary(kind)] for name, kind in DETECTORS.items()]
    print(render_table(
        ["detector", "description"],
        detector_rows, title="detectors",
    ))
    return 0


_COMMANDS = {
    "simulate": _command_simulate,
    "sweep": _command_sweep,
    "dimension": _command_dimension,
    "theory": _command_theory,
    "node": _command_node,
    "stats": _command_stats,
    "engines": _command_engines,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (| head):
        # normal shell usage, not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
