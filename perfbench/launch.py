"""Run one hubstream MiddlewareServer in its own process for the benchmark.

    python3 perfbench/launch.py --src SRC --store DIR --data-ports LO-HI [--trace-out FILE]

Builds the public MiddlewareServer on 127.0.0.1 with an ephemeral control
port and prints one JSON line ``{"control_port": N}`` once it accepts
connections.  It then reads commands, one per line, on stdin and answers
each with one JSON line on stdout:

    usage     records decoded over the live sessions; this process's CPU
              time (user + sys, s) less what its speed probes used; the
              time of a speed probe (harness.probe_ns) run now on the
              server's CPU; and the peak RSS (KiB)
    sessions  per-hub counters read from the core
    ports     the number of data ports the core holds reserved
    stop      stop the server, write the trace, print usage, exit

End of input means stop.  With --trace-out the span shims from spans.py
are installed before the server is built and the trace is written there
after the server has stopped.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys

from harness import pin, probe_ns


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Usage:
    """Answers usage queries; keeps the CPU its own probes take out of the
    server's CPU time."""

    def __init__(self, server):
        self.server = server
        self.probe_cpu_s = 0.0

    def __call__(self) -> dict:
        live = list(self.server.core.sessions.values())  # one C-level copy under the GIL
        records = sum(s.records_decoded for s in live)
        before = _cpu_s()
        probe = statistics.median(probe_ns() for _ in range(3))
        after = _cpu_s()
        self.probe_cpu_s += after - before
        return {"records": records, "cpu_s": after - self.probe_cpu_s, "probe_ns": probe,
                "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def sessions(server) -> dict:
    live = list(server.core.sessions.values())  # one C-level copy under the GIL
    return {
        s.hub_id: {
            "state": s.state.value,
            "data_port": s.data_port,
            "frames_received": s.frames_received,
            "frames_malformed": s.frames_malformed,
            "records_decoded": s.records_decoded,
            "duplicates_dropped": s.duplicates_dropped,
        }
        for s in live
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--store", required=True)
    ap.add_argument("--data-ports", required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--cpu", type=int, help="keep every server thread on this CPU")
    args = ap.parse_args()
    pin(args.cpu)
    sys.path.insert(0, args.src)
    from hubstream.server import MiddlewareServer

    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        spans.install_server_shims(tracer)
    lo, hi = (int(p) for p in args.data_ports.split("-"))
    server = MiddlewareServer(args.store, host="127.0.0.1", control_port=0, port_range=(lo, hi))
    if tracer is not None:
        spans.install_teardown_shim(tracer, server.core)
    server.start()
    usage = Usage(server)
    print(json.dumps({"control_port": server.control_port}), flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "usage":
            print(json.dumps(usage()), flush=True)
        elif command == "sessions":
            print(json.dumps(sessions(server)), flush=True)
        elif command == "ports":
            print(json.dumps({"active": server.core.ports.active_count()}), flush=True)
        elif command == "stop":
            break
        else:
            print(json.dumps({"error": f"unknown command {command!r}"}), flush=True)
    server.stop()
    if tracer is not None:
        tracer.dump(args.trace_out)
    print(json.dumps(usage()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
