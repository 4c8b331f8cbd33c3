"""Process and protocol plumbing for the benchmark: the server child
process, a control-channel client, and the statistics helpers."""

from __future__ import annotations

import json
import math
import os
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Data ports the server may assign; below the usual ephemeral range so
# client sockets never hold one.
DATA_PORTS = (21100, 21399)
TIMEOUT_S = 30.0


class ServerDied(RuntimeError):
    pass


class ServerProcess:
    """launch.py in a child process, spoken to over its stdin/stdout."""

    def __init__(self, src: Path, store: Path, trace_out: Path | None = None):
        cmd = [
            sys.executable, str(HERE / "launch.py"),
            "--src", str(src), "--store", str(store),
            "--data-ports", f"{DATA_PORTS[0]}-{DATA_PORTS[1]}",
        ]
        if SERVER_CPU is not None:
            cmd += ["--cpu", str(SERVER_CPU)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        self._buf = b""
        try:
            self.control_port = self._reply()["control_port"]
        except BaseException:
            self.kill()
            raise

    def _reply(self, timeout: float = TIMEOUT_S) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise ServerDied("server process did not answer in time")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise ServerDied(f"server process exited (code {self.proc.poll()})")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def _ask(self, command: str) -> dict:
        self.proc.stdin.write(command.encode() + b"\n")
        return self._reply()

    def mark(self) -> "Mark":
        sent = time.perf_counter()
        u = self._ask("usage")
        return Mark(sent, time.perf_counter(), u["cpu_s"], u["records"], u["probe_ns"])

    def sessions(self) -> dict:
        return self._ask("sessions")

    def active_ports(self) -> int:
        return self._ask("ports")["active"]

    def stop(self) -> dict:
        """Stop the server; returns its final usage.  The process is
        reaped whether or not this succeeds."""
        try:
            final = self._ask("stop")
            self.proc.stdin.close()
            self.proc.wait(timeout=TIMEOUT_S)
            return final
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()


class Control:
    """One control connection, used by one thread at a time."""

    def __init__(self, port: int):
        from hubstream import wire

        self.wire = wire
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)

    def register(self, doc: bytes):
        """REGISTER with the re-register flag; returns (assign or None on
        NACK, round trip in seconds)."""
        wire = self.wire
        t0 = time.perf_counter()
        wire.write_message(self.sock, wire.OP_REGISTER, wire.pack_register(doc, True))
        opcode, payload = wire.read_message(self.sock)
        rtt = time.perf_counter() - t0
        if opcode != wire.OP_ASSIGN:
            return None, rtt
        return wire.unpack_assign(payload), rtt

    def status(self, kind: int, hub_id: str = ""):
        """Returns (CSV text or None on NACK, round trip in seconds)."""
        wire = self.wire
        t0 = time.perf_counter()
        wire.write_message(self.sock, wire.OP_STATUS, wire.pack_status(kind, hub_id))
        opcode, payload = wire.read_message(self.sock)
        rtt = time.perf_counter() - t0
        if opcode != wire.OP_STATUS_OK:
            return None, rtt
        return payload.decode("utf-8"), rtt

    def close(self) -> None:
        self.sock.close()


# Other tenants slow each CPU of a shared machine by up to 2x, in
# stretches of a second to minutes, independently per CPU.  So the server
# and the load generator each keep one CPU, and each measures that CPU's
# speed beside its work with a short fixed probe loop.  Times are reported
# at the reference speed: CPU time inside a measured interval is scaled by
# PROBE_REF_NS / probe time, and waiting (timers, idle) is left as it is.
# PROBE_REF_NS is the probe's time on an uncontended CPU of the machine the
# baseline was taken on (a 2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11).
PROBE_REF_NS = 340_000
CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU = CPUS[-1] if len(CPUS) > 1 else None
CLIENT_CPU = CPUS[0] if len(CPUS) > 1 else None


def _loop_ns(n: int) -> int:
    """Time of a fixed pure-Python loop that uses no hubstream code."""
    t0 = time.perf_counter_ns()
    acc = 0
    table = {}
    for i in range(n):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    return time.perf_counter_ns() - t0


def probe_ns() -> int:
    """The speed probe: a short loop on the calling thread's CPU."""
    return _loop_ns(2000)


@dataclass(frozen=True)
class Mark:
    """The server's state at one moment, read between `sent` and
    `received` on the client clock: its CPU seconds (its own speed probes
    left out), records decoded and the speed probe's time."""

    sent: float
    received: float
    cpu_s: float
    records: int
    probe_ns: float


def at_reference(wall_s: float, a: Mark, b: Mark) -> tuple[float, float]:
    """(wall time, server CPU time) of the interval from mark a to mark b,
    scaled to the reference speed.  A client-timed request between the
    marks may pass its own wall time."""
    busy = min(wall_s, max(0.0, b.cpu_s - a.cpu_s))
    slowdown = (a.probe_ns + b.probe_ns) / 2 / PROBE_REF_NS
    return wall_s - busy + busy / slowdown, busy / slowdown


def pin(cpu: int | None) -> None:
    """Keep the calling thread, and threads it starts later, on `cpu`."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    if n <= 10:
        raise ValueError(f"{n} samples support no tail percentile")
    return (n - 10) / n


def calibration_ms() -> float:
    """Median of five runs of a long fixed loop, so results from different
    machines can be compared."""
    return sorted(_loop_ns(200_000) for _ in range(5))[2] / 1e6
