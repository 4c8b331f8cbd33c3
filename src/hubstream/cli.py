"""Command-line entry points.

Three subcommand families:

* ``hubstream server`` runs the middleware daemon or queries a running
  one over the control port (``server status``).
* ``hubstream hub`` runs a sensor hub from a plugin manifest, or lists
  what a manifest declares.
* ``hubstream bench`` runs one benchmark scenario and writes its CSV.
"""

from __future__ import annotations

import argparse
import signal
import socket
import sys
import threading
from pathlib import Path

from . import bench as bench_mod
from . import wire
from .errors import HubStreamError
from .hub import FilterPolicy, GracePolicy, SensorHub
from .server import DEFAULT_CONTROL_PORT, DEFAULT_DATA_PORTS, STATUS_LATEST, STATUS_LIST, STATUS_WINDOW, MiddlewareServer
from .simsensors import make_sim_plugin, parse_manifest
from .wrapper import Strategy


def _parse_hostport(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"{text!r} is not HOST:PORT")
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad port in {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hubstream")
    sub = parser.add_subparsers(dest="command", required=True)

    server = sub.add_parser("server", help="run the middleware or query a running one")
    server_sub = server.add_subparsers(dest="server_command")
    server.add_argument("--store", default="./store", help="plan/definition/log directory")
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument("--control-port", type=int, default=DEFAULT_CONTROL_PORT)
    server.add_argument(
        "--data-ports",
        default=f"{DEFAULT_DATA_PORTS[0]}-{DEFAULT_DATA_PORTS[1]}",
        help="inclusive range LO-HI for per-hub stream ports",
    )
    server.add_argument(
        "--strategy",
        choices=[s.tag for s in Strategy],
        default=Strategy.DGCW.tag,
        help="wrapper strategy for new registrations",
    )
    status = server_sub.add_parser("status", help="query a running server")
    status.add_argument("--host", default="127.0.0.1")
    status.add_argument("--control-port", type=int, default=DEFAULT_CONTROL_PORT)
    status.add_argument("--hub", default=None, help="show latest record for this hub")
    status.add_argument(
        "--window", action="store_true", help="with --hub: the latest record as field,op,value rows"
    )

    hub = sub.add_parser("hub", help="run a sensor hub from a manifest")
    hub_sub = hub.add_subparsers(dest="hub_command", required=True)
    run = hub_sub.add_parser("run", help="register and stream until interrupted")
    run.add_argument("--server", type=_parse_hostport, required=True, metavar="HOST:PORT")
    run.add_argument("--manifest", type=Path, required=True)
    run.add_argument("--hub-id", default="hub_main")
    run.add_argument("--filter", default="none", help="none | delta:T | avg:N")
    run.add_argument("--grace-ms", type=int, default=30_000)
    plugins = hub_sub.add_parser("plugins", help="inspect a manifest")
    plugins_sub = plugins.add_subparsers(dest="plugins_command", required=True)
    plist = plugins_sub.add_parser("list", help="list the plugins a manifest declares")
    plist.add_argument("--manifest", type=Path, required=True)

    bench = sub.add_parser("bench", help="run one benchmark scenario")
    bench_sub = bench.add_subparsers(dest="scenario", required=True)

    decode = bench_sub.add_parser("decode")
    decode.add_argument("--fields", type=int, default=8)
    decode.add_argument("--records", type=int, default=1_000_000)
    decode.add_argument("--reps", type=int, default=10)

    config = bench_sub.add_parser("config")
    config.add_argument(
        "--fields", default="1,2,4,8,16,32,64", help="comma-separated field counts"
    )
    config.add_argument(
        "--strategy", choices=[s.tag for s in Strategy], default=Strategy.DGCW.tag
    )
    config.add_argument("--reps", type=int, default=10)

    storage = bench_sub.add_parser("storage")
    storage.add_argument("--max-schemas", type=int, default=100)

    plugstore = bench_sub.add_parser("plugin-storage")
    plugstore.add_argument("--max-plugins", type=int, default=15)

    energy = bench_sub.add_parser("energy")
    energy.add_argument("--rates", default="1,2,5,10,20", help="comma-separated Hz")
    energy.add_argument("--policies", default="none,delta:0.5,avg:10")
    energy.add_argument("--duration", type=int, default=60, help="modeled seconds")

    e2e = bench_sub.add_parser("e2e")
    e2e.add_argument("--parallel-hubs", type=int, default=3)
    e2e.add_argument("--sensors", type=int, default=8)
    e2e.add_argument("--rate", type=int, default=10)
    e2e.add_argument("--duration", type=int, default=10)

    for scenario_parser in (decode, config, storage, plugstore, energy, e2e):
        scenario_parser.add_argument("--out", type=Path, required=True, metavar="FILE.csv")

    return parser


def _cmd_server(args) -> int:
    if args.server_command == "status":
        return _cmd_server_status(args)
    lo_text, _, hi_text = args.data_ports.partition("-")
    server = MiddlewareServer(
        Path(args.store),
        strategy=Strategy.from_tag(args.strategy),
        host=args.host,
        control_port=args.control_port,
        port_range=(int(lo_text), int(hi_text)),
    )
    server.start()
    print(
        f"listening on {args.host}:{server.control_port} "
        f"(data ports {args.data_ports}, store {args.store})"
    )
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    try:
        stop.wait()
    finally:
        server.stop()
    return 0


def _cmd_server_status(args) -> int:
    if args.window and not args.hub:
        print("--window needs --hub", file=sys.stderr)
        return 2
    if args.hub is None:
        kind, hub_id = STATUS_LIST, ""
    elif args.window:
        kind, hub_id = STATUS_WINDOW, args.hub
    else:
        kind, hub_id = STATUS_LATEST, args.hub
    try:
        with socket.create_connection((args.host, args.control_port), timeout=5) as sock:
            wire.write_message(sock, wire.OP_STATUS, wire.pack_status(kind, hub_id))
            opcode, payload = wire.read_message(sock)
    except (OSError, wire.ConnectionClosed) as exc:
        print(f"cannot query {args.host}:{args.control_port}: {exc}", file=sys.stderr)
        return 1
    if opcode == wire.OP_NACK:
        code, message = wire.unpack_nack(payload)
        print(f"refused (code {code}): {message}", file=sys.stderr)
        return 1
    sys.stdout.write(payload.decode("utf-8"))
    return 0


def _cmd_hub(args) -> int:
    if args.hub_command == "plugins":
        specs = parse_manifest(args.manifest.read_text(encoding="utf-8"))
        print("name\tkind\ttype\tperiod_ms")
        for spec in specs:
            print(f"{spec.name}\t{spec.kind.value}\t{spec.value_type.value}\t{spec.period_ms}")
        return 0

    specs = parse_manifest(args.manifest.read_text(encoding="utf-8"))
    if not specs:
        print("manifest declares no plugins", file=sys.stderr)
        return 2
    hub = SensorHub(
        args.hub_id,
        args.server,
        filter_policy=FilterPolicy.parse(args.filter),
        grace_policy=GracePolicy(null_grace_ms=args.grace_ms),
    )
    for spec in specs:
        hub.register_plugin(make_sim_plugin(spec, clock=hub.clock))
    hub.start()
    print(f"hub {args.hub_id}: {len(specs)} plugins, streaming to {args.server[0]}:{args.server[1]}")
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    try:
        stop.wait()
    finally:
        hub.stop()
        print(
            f"registrations={hub.registration_count} frames_sent={hub.frames_sent} "
            f"dropped={hub.queue_dropped} sample_errors={hub.sample_errors}"
        )
    return 0


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _cmd_bench(args) -> int:
    if args.scenario == "decode":
        report = bench_mod.bench_decode(args.fields, args.records, reps=args.reps)
    elif args.scenario == "config":
        report = bench_mod.bench_config_time(
            _ints(args.fields), Strategy.from_tag(args.strategy), reps=args.reps
        )
    elif args.scenario == "storage":
        report = bench_mod.bench_storage(tuple(range(1, args.max_schemas + 1)))
    elif args.scenario == "plugin-storage":
        report = bench_mod.bench_plugin_storage(tuple(range(1, args.max_plugins + 1)))
    elif args.scenario == "energy":
        report = bench_mod.bench_energy(
            _ints(args.rates), args.policies.split(","), duration_s=args.duration
        )
    else:
        report = bench_mod.bench_e2e(
            hub_count=args.parallel_hubs,
            sensor_count=args.sensors,
            rate_hz=args.rate,
            duration_s=args.duration,
        )
    bench_mod.write_csv(report, args.out)
    sys.stdout.write(report.to_csv())
    print(f"# environment: {report.environment}")
    for line in report.footnotes:
        print(f"# {line}")
    print(f"# written to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "server":
            return _cmd_server(args)
        if args.command == "hub":
            return _cmd_hub(args)
        return _cmd_bench(args)
    except HubStreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
