"""The three workloads, their set-up and the checks run before any metric
is reported.

Every workload starts the same way: SETUP_LAUNCHES launches of a fresh
server, each measured as the server's CPU time from process start until
it has sent the first ASSIGN, at the reference speed (setup_s is their
median).  The last launch serves the workload.  The load generator is
this one process, with at most two threads and two connections to the
server at a time.
"""

from __future__ import annotations

import bisect
import csv
import io
import random
import shutil
import socket
import statistics
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

from hubstream import wire
from hubstream.sdd import fingerprint, parse_musdd
from hubstream.server import STATUS_LATEST, STATUS_LIST, RecordLog

import gen
from harness import PROBE_REF_NS, Control, ServerProcess, at_reference

SETUP_LAUNCHES = 5
SETUP_MARKS = 6  # speed probes read after each set-up launch; their median scales it
PROBES_PER_LAUNCH = 25  # fresh-hub registrations on each set-up launch but the last
PROBE_INTERVAL_S = 0.02  # spreads the probes over time, so a short stall hits few
POOL_TICKS = 100_000
CHUNK_FRAMES = 512
STATUS_RATE_HZ = 20
WINDOW_S = 0.25  # ingest rate, server CPU and its speed are sampled this often
DUP_EVERY, DUP_BACK = 20, 5
CHURN_HUBS = 6
CHURN_SCHEMAS = 12
CHURN_SCHEMA_TICKS = 20 * gen.BLOCK_TICKS
COLD_EVERY = 3  # registration i brings a new schema when i % COLD_EVERY == 0
BURST_FRAMES = 50
CHURN_MIN_REGISTRATIONS = 50  # also the basis of the churn tail percentiles
CHURN_MAX_REGISTRATIONS = 100_000  # planned schema choices; a run stops long before
STATUS_POLL_S = 0.001
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """Operations attempted and failed, failed checks, samples and
    metrics of one workload run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    register_s: list[float] = field(default_factory=list)
    status_s: list[float] = field(default_factory=list)
    status_late_s: list[float] = field(default_factory=list)
    status_done: list[float] = field(default_factory=list)  # when each status sample ended
    values: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    # sample count each tail percentile is based on; every run of the
    # workload takes at least this many (default: the samples taken)
    tail_basis: dict = field(default_factory=dict)

    def ops(self, attempted: int, failed: int = 0, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{failed} of {attempted} {what} failed")

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ops(1, 0 if ok else 1)
        if not ok:
            self.failures.append(f"check {name}: {detail}")
        return ok


class Context:
    """Where a run keeps its files, and whether the server is traced."""

    def __init__(self, src: Path, work: Path, trace: bool = False,
                 setup_launches: int = SETUP_LAUNCHES):
        self.src = src
        self.work = work
        self.trace = trace
        self.setup_launches = setup_launches
        self.last_trace: Path | None = None
        self._launches = 0
        work.mkdir(parents=True, exist_ok=True)

    def launch(self, stack: ExitStack) -> tuple[ServerProcess, Path]:
        self._launches += 1
        store = self.work / f"store{self._launches}"
        if self.trace:
            self.last_trace = self.work / f"trace{self._launches}.json"
        server = stack.enter_context(ServerProcess(self.src, store, self.last_trace))
        return server, store


def _list_rows(text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    return {r[0]: r for r in rows[1:]}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _check_log(out: Outcome, path: Path, expected, what: str) -> None:
    """The record log must replay to exactly the expected frame bodies,
    in order and nothing more."""
    name = f"{what} log replays"
    try:
        got = RecordLog.replay(path)
        n = -1
        for n, want in enumerate(expected):
            entry = next(got, None)
            if entry is None:
                out.check(name, False, f"log ends after {n} records")
                return
            if entry[1] != want:
                out.check(name, False, f"record {n} differs")
                return
        extra = next(got, None)
    except Exception as exc:  # a torn or unreadable log is a failed check
        out.check(name, False, f"{type(exc).__name__}: {exc}")
        return
    out.check(name, extra is None, f"records beyond the {n + 1} expected")


def _windows(marks, frames) -> tuple[list, float, float]:
    """Per window between consecutive marks: (end time, reference time /
    wall time); and the median frames/s and server CPU us/frame at the
    reference speed.  frames[k] counts frames stored by mark k."""
    scales, rates, cpu = [], [], []
    for (a, fa), (b, fb) in zip(zip(marks, frames), zip(marks[1:], frames[1:])):
        wall = b.sent - a.received
        ref, busy = at_reference(wall, a, b)
        scales.append((b.sent, ref / wall))
        if fb > fa:
            rates.append((fb - fa) / ref)
            cpu.append(busy / (fb - fa) * 1e6)
    return scales, statistics.median(rates), statistics.median(cpu)


def _request(server, fn):
    """Run one request between two marks; returns (its result, its time
    at the reference speed)."""
    a = server.mark()
    result, rtt = fn()
    return result, at_reference(rtt, a, server.mark())[0]


def _setup(ctx: Context, stack: ExitStack, out: Outcome, doc: bytes, probe_docs: list[bytes]):
    """ctx.setup_launches launches; returns the last (server, store,
    control, assign).  The others also time probe registrations, then
    stop.  Set-up time is the server's CPU time, not the wall time: the
    wall time also holds the process spawn and the scheduler's delays,
    which swing by half on a shared machine; it is printed as a note."""
    walls = []
    for k in range(ctx.setup_launches):
        with ExitStack() as launch_stack:
            t0 = time.perf_counter()
            server, store = ctx.launch(launch_stack)
            control = Control(server.control_port)
            launch_stack.callback(control.close)
            assign, _ = control.register(doc)
            walls.append(time.perf_counter() - t0)
            ready = [server.mark() for _ in range(SETUP_MARKS)]
            slowdown = statistics.median(m.probe_ns for m in ready) / PROBE_REF_NS
            out.setup_s.append(ready[0].cpu_s / slowdown)  # CPU time since the process started
            out.ops(1, int(assign is None), "set-up registrations")
            if k == ctx.setup_launches - 1:
                stack.enter_context(launch_stack.pop_all())
                out.notes.append(f"set-up wall time {statistics.median(walls):.3f} s"
                                 f" (median of {len(walls)} launches, spawn included)")
                return server, store, control, assign
            failed = 0
            for probe in probe_docs:
                time.sleep(PROBE_INTERVAL_S)
                probe_assign, rtt = _request(server, lambda: control.register(probe))
                out.register_s.append(rtt)
                failed += probe_assign is None
            out.ops(len(probe_docs), failed, "probe registrations")
            control.close()
            server.stop()
        shutil.rmtree(store, ignore_errors=True)
    raise AssertionError("unreachable")


def _prober(control: Control, queries, start: float, deadline: float, out: Outcome) -> None:
    """Open loop: query i is due at start + i / STATUS_RATE_HZ and is timed
    from when it was due."""
    i = 0
    failed = 0
    while True:
        due = start + i / STATUS_RATE_HZ
        if due >= deadline:
            break
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent = time.perf_counter()
        kind, hub_id = queries[i % len(queries)]
        try:
            text, _ = control.status(kind, hub_id)
        except (OSError, wire.ConnectionClosed):
            text = None
        done = time.perf_counter()
        out.status_s.append(done - due)
        out.status_done.append(done)
        out.status_late_s.append(sent - due)
        failed += text is None
        i += 1
        if text is None:
            break
    out.ops(i, failed, "status queries")


def run_ingest(ctx: Context, inp: gen.HubInput, seconds: float, queries, dups: bool) -> Outcome:
    """One hub streams its frames at full rate over one data connection
    (closed loop: TCP flow control paces it) while a second thread sends
    status queries on a fixed schedule over the control connection.
    ingest_fps and server_cpu_us_per_frame are medians over WINDOW_S
    windows; each status time is scaled like the window it ended in."""
    out = Outcome(values={"hub_frame_us": inp.hub_frame_us})
    stream = gen.Stream(inp, DUP_EVERY, DUP_BACK) if dups else gen.Stream(inp)
    probe_docs = [inp.doc_for(f"probe_{j}") for j in range(PROBES_PER_LAUNCH)]
    with ExitStack() as stack:
        server, store, control, assign = _setup(ctx, stack, out, inp.doc, probe_docs)
        if not out.check("ASSIGN layout", assign is not None and assign.field_layout == inp.layout,
                         "layout differs from the schema"):
            return out
        data = socket.create_connection(("127.0.0.1", assign.data_port), timeout=30)
        stack.callback(data.close)
        marks = [server.mark()]
        t_first = time.perf_counter()
        deadline = t_first + seconds
        prober = threading.Thread(target=_prober, args=(control, queries, t_first, deadline, out))
        prober.start()
        try:
            data.sendall(assign.token)
            sent = resent = 0
            wire_bytes = len(assign.token)
            while (now := time.perf_counter()) < deadline:
                if now >= marks[-1].received + WINDOW_S:
                    marks.append(server.mark())
                buf, n_dup = stream.chunk(sent, CHUNK_FRAMES)
                data.sendall(buf)
                sent += CHUNK_FRAMES
                resent += n_dup
                wire_bytes += len(buf)
        finally:
            prober.join()
        stored = 0
        while time.perf_counter() < deadline + DRAIN_TIMEOUT_S:
            text, _ = control.status(STATUS_LIST)
            row = _list_rows(text or "").get(inp.hub_id)
            stored = int(row[2]) if row else 0
            if stored >= sent:
                break
            time.sleep(STATUS_POLL_S)
        t_done = time.perf_counter()
        out.ops(sent, max(0, sent - stored), "frames")
        text, _ = control.status(STATUS_LATEST, inp.hub_id)
        rows = list(csv.reader(io.StringIO(text or "")))
        last = rows[1][1] if len(rows) > 1 else None
        out.check("STATUS_LATEST shows the last sequence", last == str(sent - 1),
                  f"got {last}, sent {sent - 1}")
        session = server.sessions().get(inp.hub_id, {})
        out.check("records_decoded", session.get("records_decoded") == sent,
                  f"{session.get('records_decoded')} != {sent}")
        out.check("duplicates_dropped", session.get("duplicates_dropped") == resent,
                  f"{session.get('duplicates_dropped')} != {resent}")
        data.close()
        control.close()
        final = server.stop()
        _check_log(out, store / "data" / f"{inp.hub_id}.log",
                   (stream.frame(seq)[4:] for seq in range(sent)), inp.hub_id)
        scales, fps, cpu_us = _windows(marks, [m.records for m in marks])
        ends = [end for end, _ in scales]
        last = len(scales) - 1
        out.status_s = [t * scales[min(bisect.bisect_left(ends, done), last)][1]
                        for t, done in zip(out.status_s, out.status_done)]
        out.values.update(
            ingest_fps=fps,
            server_cpu_us_per_frame=cpu_us,
            wire_bytes_per_sample=wire_bytes / stream.ticks_through(sent),
            plan_store_bytes=_dir_bytes(store / "plans"),
            server_rss_mb=final["maxrss_kib"] / 1024.0,
        )
        out.notes.append(f"whole run: {stored} frames in {t_done - t_first:.3f} s,"
                         f" {stored / (t_done - t_first):.1f} frames/s at the machine's speed")
    return out


@dataclass
class ChurnInput:
    hubs: list[str]
    schemas: list[gen.HubInput]
    plan: list[int]  # schema index of registration i, for as many as a run needs
    hub_frame_us: float

    def hub(self, i: int) -> str:
        return self.hubs[i % len(self.hubs)]

    def doc(self, i: int) -> bytes:
        return self.schemas[self.plan[i]].doc_for(self.hub(i))


def churn_input(seed: int, tracer=None) -> ChurnInput:
    rng = random.Random(seed)
    schemas = [
        gen.generate("churn", specs, "none", CHURN_SCHEMA_TICKS, tracer)
        for specs in gen.churn_schemas(rng, CHURN_SCHEMAS)
    ]
    plan = []
    for i in range(CHURN_MAX_REGISTRATIONS):
        newest = i // COLD_EVERY
        if i % COLD_EVERY == 0 and newest < CHURN_SCHEMAS:
            plan.append(newest)  # cold: first use of this schema
        else:
            plan.append(i * 7 % min(newest + 1, CHURN_SCHEMAS))  # warm
    hubs = [f"churn_{k}" for k in range(CHURN_HUBS)]
    return ChurnInput(hubs, schemas, plan, statistics.median(s.hub_frame_us for s in schemas))


def run_churn(ctx: Context, inp: ChurnInput, seconds: float) -> Outcome:
    """One client on one control connection re-registers a rotating set of
    hub ids with a fixed mix of new and cached schemas.  Each session gets
    a short burst on its data port before its hub re-registers: the client
    connects, sends, closes and polls STATUS_LIST until the burst is
    stored, then re-registers at once, as a hub does when its schema
    changes.  The first round registers the hubs; timing starts with the
    second.  Each timed cycle also sends one STATUS_LIST, the status
    sample."""
    out = Outcome(values={"hub_frame_us": inp.hub_frame_us},
                  tail_basis={"status": CHURN_MIN_REGISTRATIONS,
                              "register": CHURN_MIN_REGISTRATIONS})
    current: dict[str, tuple] = {}  # hub id -> (assign, schema, doc) of its live session
    logs: dict[str, list[bytes]] = {h: [] for h in inp.hubs}
    totals = {"bursts": 0, "wire_bytes": 0}

    def assigned(i: int, assign) -> bool:
        schema = inp.schemas[inp.plan[i]]
        if not out.check("ASSIGN layout", assign.field_layout == schema.layout,
                         f"registration {i}"):
            return False
        current[inp.hub(i)] = (assign, schema, inp.doc(i))
        return True

    def burst(hub_id: str, control: Control) -> bool:
        assign, schema, _ = current[hub_id]
        n = totals["bursts"]
        frames = [
            wire.pack_frame(seq, gen.T0_MS + (n * BURST_FRAMES + seq) * gen.BASE_MS,
                            schema.fields[(n * BURST_FRAMES + seq) % len(schema.fields)])
            for seq in range(BURST_FRAMES)
        ]
        payload = assign.token + b"".join(frames)
        totals["bursts"] += 1
        totals["wire_bytes"] += len(payload)
        with socket.create_connection(("127.0.0.1", assign.data_port), timeout=30) as data:
            data.sendall(payload)
        logs[hub_id].extend(f[4:] for f in frames)
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        stored = 0
        while stored < BURST_FRAMES and time.perf_counter() < deadline:
            time.sleep(STATUS_POLL_S)
            text, _ = control.status(STATUS_LIST)
            row = _list_rows(text or "").get(hub_id)
            stored = int(row[2]) if row else 0
        out.ops(BURST_FRAMES, BURST_FRAMES - min(stored, BURST_FRAMES), "frames")
        return stored == BURST_FRAMES

    with ExitStack() as stack:
        server, store, control, assign = _setup(ctx, stack, out, inp.doc(0), [])
        if assign is None or not assigned(0, assign):
            return out
        marks, frames = [], []  # at the start of each timed cycle
        deadline = None
        i = 1
        while True:
            hub_id = inp.hub(i)
            timed = i >= len(inp.hubs)
            if timed:
                now = time.perf_counter()
                if deadline is None:
                    deadline = now + seconds
                elif now >= deadline and len(out.register_s) >= CHURN_MIN_REGISTRATIONS \
                        and i > COLD_EVERY * (CHURN_SCHEMAS - 1):
                    break
                marks.append(server.mark())
                frames.append(totals["bursts"] * BURST_FRAMES)
                text, rtt = _request(server, lambda: control.status(STATUS_LIST))
                out.status_s.append(rtt)
                out.ops(1, int(text is None), "status queries")
            if hub_id in current and not burst(hub_id, control):
                break
            if timed:
                assign, rtt = _request(server, lambda: control.register(inp.doc(i)))
                out.register_s.append(rtt)
            else:
                assign, _ = control.register(inp.doc(i))
            out.ops(1, int(assign is None), "registrations")
            if assign is None or not assigned(i, assign):
                break
            i += 1
        marks.append(server.mark())
        frames.append(totals["bursts"] * BURST_FRAMES)
        for hub_id in inp.hubs:  # every live session takes one more burst
            burst(hub_id, control)

        text, _ = control.status(STATUS_LIST)
        rows = _list_rows(text or "")
        out.check("STATUS_LIST lists exactly the live hubs", set(rows) == set(inp.hubs),
                  f"listed {sorted(rows)}")
        for hub_id in inp.hubs:
            row = rows.get(hub_id)
            want = fingerprint(parse_musdd(current[hub_id][2])).digest
            ok = row is not None and row[1] == "active" and row[2] == str(BURST_FRAMES) \
                and row[3] == want
            out.check(f"{hub_id} session", ok, f"row {row}, expected {want}")
        held = server.active_ports()
        out.check("data ports held only by the live hubs", held == len(inp.hubs),
                  f"{held} ports reserved for {len(inp.hubs)} hubs")
        control.close()
        final = server.stop()
        for hub_id, expected in logs.items():
            _check_log(out, store / "data" / f"{hub_id}.log", expected, hub_id)
        _, fps, cpu_us = _windows(marks, frames)
        out.values.update(
            ingest_fps=fps,
            server_cpu_us_per_frame=cpu_us,
            wire_bytes_per_sample=totals["wire_bytes"] / (totals["bursts"] * BURST_FRAMES),
            plan_store_bytes=_dir_bytes(store / "plans"),
            server_rss_mb=final["maxrss_kib"] / 1024.0,
        )
        out.notes.append(f"{i} registrations, {len(set(inp.plan[:i]))} distinct schemas")
    return out

