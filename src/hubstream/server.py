"""The ingestion middleware: registration orchestration plus TCP shell.

MiddlewareCore is the engine: it runs the whole registration pipeline
in-process (parse, fingerprint, plan lookup/compile, virtual sensor
definition, connection request, instance lifecycle, port assignment),
ingests decoded frames, and answers status queries.  Benchmarks and most
tests drive the core directly with no sockets involved.

MiddlewareServer is the network shell around a core: a control listener
that speaks the length-prefixed message protocol (one thread per control
connection), and one data-plane thread that serves every data port.
Registration steps run in this order:

    parse -> fingerprint -> plan lookup/compile -> generate definition
          -> reserve port -> connection request -> instantiate
          -> initialize -> start -> open record log -> bind data port
          -> reply

and the elapsed wall time of the core's steps, through opening the record
log, is recorded on the session as configuration_time_ms.  A failure at
any step rolls back everything the attempt created: no session entry, no
live definition, no reserved port, no running instance, no open log or
socket.  A data port that cannot be bound is refused as NoFreePort.

The data plane is one non-blocking ``selectors`` loop that owns every
assigned listening socket and every hub connection, so the server's
thread count does not grow with the number of hubs.  Registration binds
the data port in the control thread and hands the socket to the loop over
a wakeup socketpair before ASSIGN is sent.  As in the paper, each hub has
its own port and each port serves one connection at a time: a second
connection waits in the listen backlog until the first one closes, and a
hub that reconnects is served again.  A connection opens with the session
token; after that every read takes up to RECV_BYTES, every complete
length-prefixed frame in the buffer is split out and ingested as one
batch, and a partial frame waits for the next read.

A wrong token, or a length prefix below the frame header or above
wire.MAX_MESSAGE, closes the connection (counted on the session as
bad_tokens or bad_lengths) and the port goes back to listening.  A frame
that does not decode is counted as malformed and skipped.  If ingesting a
read raises anything else (the record log cannot be written, say), that
one connection is dropped and counted as batches_failed, and the loop goes
on serving every other port.  An accept that fails for want of a file
descriptor leaves that listener unwatched for ACCEPT_BACKOFF_S rather
than spinning on it.

Tearing a session down runs on the loop thread, between two rounds of
events, and returns only once the loop has closed the session's sockets
and can never touch the session again.  Once the loop has stopped, a new
data port is refused as NoFreePort and stop() closes the ports left.

Ingest publishes a batch in this order.  For each record: decode and
dedup (records_decoded moves), then the window buffer.  Then the log
entries of every stored record go to the record log in one write and one
flush, and only after that flush does frames_received move.  So a reader
that sees frames_received cover a frame finds that frame's record in the
log.

Durability: the record log is flushed to the operating system once per
batch and never fsynced.  A crash of the server process loses at most the
batch being ingested (the frames of one read, up to RECV_BYTES); a crash
of the machine can lose whatever the operating system had not yet
written.

Each accepted record is appended to a per-hub record log at
``<store>/data/<hub_id>.log``: an 8-byte big-endian arrival timestamp
(ms), then the frame exactly as received (length prefix included), so a
log replays through the same decode path that ingested it.  Every record
of one batch carries the batch's arrival time.
"""

from __future__ import annotations

import csv
import io
import logging
import os
import secrets
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Optional

from . import wire
from .errors import (
    FrameTooShort,
    HubStreamError,
    InvalidText,
    MalformedDocument,
    NameCollision,
    NoFreePort,
    SequenceRegression,
    TrailingBytes,
    TypeTagMismatch,
    UnknownHub,
)
from .sdd import SchemaFingerprint, ValueType, fingerprint, parse_musdd
from .vsd import VsdCatalog, eval_window_query, make_wcr
from .wrapper import (
    LifecycleState,
    PlanRepository,
    Strategy,
    StreamRecord,
    WrapperInstance,
    compile_plan,
    instantiate,
)

_log = logging.getLogger(__name__)

__all__ = [
    "AssignConfig",
    "SessionState",
    "RegistrationSession",
    "PortAllocator",
    "RecordLog",
    "MiddlewareCore",
    "MiddlewareServer",
    "STATUS_LIST",
    "STATUS_LATEST",
    "STATUS_WINDOW",
    "DEFAULT_CONTROL_PORT",
    "DEFAULT_DATA_PORTS",
]

DEFAULT_CONTROL_PORT = 7001
DEFAULT_DATA_PORTS = (7100, 7199)

STATUS_LIST = 0
STATUS_LATEST = 1
STATUS_WINDOW = 2

# Per-session in-memory record buffer feeding window queries.
WINDOW_BUFFER_LEN = 1024

# Most bytes the data plane takes from one connection per read; one read
# is one ingest batch.
RECV_BYTES = 256 * 1024

# How long a data port's listener goes unwatched after an accept fails for
# want of a file descriptor.
ACCEPT_BACKOFF_S = 0.1


class PortAllocator:
    """Hands out data ports from an inclusive range; released ports are
    reusable.  Thread-safe."""

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise ValueError(f"empty port range {lo}-{hi}")
        self._lock = threading.Lock()
        self._free = list(range(hi, lo - 1, -1))  # pop() yields lo first
        self._taken: set[int] = set()

    def reserve(self) -> int:
        with self._lock:
            if not self._free:
                raise NoFreePort("data port range exhausted")
            port = self._free.pop()
            self._taken.add(port)
            return port

    def release(self, port: int) -> None:
        with self._lock:
            if port in self._taken:
                self._taken.remove(port)
                self._free.append(port)

    def active_count(self) -> int:
        with self._lock:
            return len(self._taken)


class RecordLog:
    """Append-only frame log for one hub, replayable through decode."""

    ARRIVAL = wire.U64

    def __init__(self, path: Path):
        self._path = path
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(path, "ab")

    def append(self, arrival_ms: int, *frame_bodies: bytes) -> None:
        """Append one entry per frame body, all stamped arrival_ms, in one
        write and one flush."""
        arrival = self.ARRIVAL.pack(arrival_ms)
        pack_length = wire.U32.pack
        entries = [b""]  # so the join puts an arrival stamp before every entry
        entries += [pack_length(len(body)) + body for body in frame_bodies]
        self._fh.write(arrival.join(entries))
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    @staticmethod
    def replay(path: Path):
        """Yield (arrival_ms, frame_body) entries from a log file."""
        data = path.read_bytes()
        pos = 0
        while pos < len(data):
            (arrival,) = wire.U64.unpack_from(data, pos)
            (length,) = wire.U32.unpack_from(data, pos + 8)
            start = pos + 12
            body = data[start : start + length]
            if len(body) != length:
                raise FrameTooShort("record log truncated")
            yield arrival, body
            pos = start + length


class SessionState(Enum):
    CONFIGURING = "configuring"
    ACTIVE = "active"
    TORN_DOWN = "torn_down"


@dataclass
class AssignConfig:
    """What the hub needs to start streaming: where, as whom, in what
    field order."""

    data_port: int
    wrapper_name: str
    field_layout: tuple[tuple[str, ValueType], ...]
    session_token: bytes


@dataclass
class RegistrationSession:
    hub_id: str
    fingerprint: SchemaFingerprint
    strategy: Strategy
    data_port: int
    instance: WrapperInstance
    token: bytes
    created_at: float
    state: SessionState = SessionState.CONFIGURING
    cache_hit: bool = False
    configuration_time_ms: float = 0.0
    frames_received: int = 0
    frames_malformed: int = 0
    bad_tokens: int = 0  # data connections that opened with a wrong token
    bad_lengths: int = 0  # data connections dropped for an impossible frame length
    batches_failed: int = 0  # data connections dropped because ingesting a read raised
    log: Optional[RecordLog] = None
    window_buffer: deque = field(default_factory=lambda: deque(maxlen=WINDOW_BUFFER_LEN))

    @property
    def records_decoded(self) -> int:
        return self.instance.records_decoded

    @property
    def duplicates_dropped(self) -> int:
        return self.instance.duplicates_dropped


def _dispose_quietly(instance: WrapperInstance) -> None:
    """Wind an instance down along legal lifecycle edges only; an instance
    that never reached RUNNING is simply dropped."""
    if instance.state is LifecycleState.RUNNING:
        instance.stop()
    if instance.state is LifecycleState.STOPPED:
        instance.dispose()


class MiddlewareCore:
    """The in-process middleware engine (no sockets)."""

    def __init__(
        self,
        store_dir: str | os.PathLike,
        strategy: Strategy = Strategy.DGCW,
        port_range: tuple[int, int] = DEFAULT_DATA_PORTS,
    ):
        self.store_dir = Path(store_dir)
        self.strategy = strategy
        self.repository = PlanRepository(self.store_dir)
        self.catalog = VsdCatalog(self.store_dir)
        self.ports = PortAllocator(*port_range)
        self.sessions: dict[str, RegistrationSession] = {}
        self._lock = threading.Lock()
        # shell hook: called with the session before its instance stops,
        # so a network wrapper can close the data port first
        self.on_teardown: Optional[Callable[[RegistrationSession], None]] = None

    # --- registration ------------------------------------------------------

    def handle_register(self, raw: bytes, reregister: bool = False) -> AssignConfig:
        """Run the registration pipeline; returns the stream assignment.

        Raises:
            MalformedDocument/UnknownVersion/SchemaViolation: bad document.
            NameCollision: hub already active and reregister not set.
            NoFreePort: port range exhausted.
        """
        t0 = time.perf_counter()
        doc = parse_musdd(raw)

        with self._lock:
            existing = self.sessions.get(doc.hub_id)
            if existing is not None and existing.state is SessionState.ACTIVE:
                if not reregister:
                    raise NameCollision(f"hub {doc.hub_id!r} already registered")
                self._teardown_locked(existing)

        fp = fingerprint(doc)
        plan, cache_hit = self.repository.lookup_or_add(
            fp, self.strategy, lambda: compile_plan(doc, self.strategy)
        )

        vsd = self.catalog.generate_vsd(doc, plan)
        port = None
        instance = None
        try:
            port = self.ports.reserve()
            wcr = make_wcr(vsd, port)
            instance = instantiate(wcr, self.repository)
            instance.initialize()
            instance.start()
            session = RegistrationSession(
                hub_id=doc.hub_id,
                fingerprint=fp,
                strategy=self.strategy,
                data_port=port,
                instance=instance,
                token=secrets.token_bytes(wire.TOKEN_LEN),
                created_at=time.time(),
                cache_hit=cache_hit,
            )
            session.log = RecordLog(self.store_dir / "data" / f"{doc.hub_id}.log")
            session.state = SessionState.ACTIVE
            session.configuration_time_ms = (time.perf_counter() - t0) * 1000.0
            with self._lock:
                self.sessions[doc.hub_id] = session
        except BaseException:
            self.catalog.teardown(doc.hub_id)
            if port is not None:
                self.ports.release(port)
            if instance is not None:
                _dispose_quietly(instance)
            raise
        return AssignConfig(
            data_port=port,
            wrapper_name=vsd.wrapper_name,
            field_layout=tuple((f.name, f.value_type) for f in plan.field_layout),
            session_token=session.token,
        )

    def handle_reregister(self, raw: bytes) -> AssignConfig:
        """Re-registration: tear down any active session for the hub, then
        register afresh (plan reuse applies).  Unknown hubs register
        normally."""
        return self.handle_register(raw, reregister=True)

    def _teardown_locked(self, session: RegistrationSession) -> None:
        if session.state is SessionState.TORN_DOWN:
            return
        if self.on_teardown is not None:
            self.on_teardown(session)
        _dispose_quietly(session.instance)
        if session.log is not None:
            session.log.close()
        self.ports.release(session.data_port)
        self.catalog.teardown(session.hub_id)
        session.state = SessionState.TORN_DOWN
        self.sessions.pop(session.hub_id, None)

    def teardown_session(self, hub_id: str) -> None:
        with self._lock:
            session = self.sessions.get(hub_id)
            if session is None:
                raise UnknownHub(f"no session for hub {hub_id!r}")
            self._teardown_locked(session)

    def shutdown(self) -> None:
        with self._lock:
            for session in list(self.sessions.values()):
                self._teardown_locked(session)

    def get_session(self, hub_id: str) -> RegistrationSession:
        with self._lock:
            session = self.sessions.get(hub_id)
        if session is None:
            raise UnknownHub(f"no session for hub {hub_id!r}")
        return session

    def get_session_by_token(self, token: bytes) -> RegistrationSession:
        with self._lock:
            for session in self.sessions.values():
                if session.token == token:
                    return session
        raise UnknownHub("no session for that token")

    # --- ingest --------------------------------------------------------------

    def ingest_batch(
        self, session: RegistrationSession, frame_bodies, arrival_ms: int | None = None
    ) -> int:
        """Feed received frame bodies, in arrival order, through the
        session's wrapper; returns how many were stored.

        Each record is decoded and deduplicated, then goes to the window
        buffer.  Then the stored frames go to the record log in one write
        and one flush, and only then does frames_received move.  Malformed
        frames and sequence regressions are counted and skipped; duplicates
        are dropped by the wrapper.  The records are not collected: the
        window buffer holds the newest, and keeping a whole batch of them
        alive costs more in garbage collection than the rest of the loop.
        """
        on_stream_element = session.instance.on_stream_element
        remember = session.window_buffer.append
        stored = []
        malformed = 0
        for body in frame_bodies:
            try:
                record = on_stream_element(body)
            except (
                FrameTooShort, TypeTagMismatch, TrailingBytes, InvalidText, SequenceRegression
            ):
                malformed += 1
                continue
            if record is not None:
                remember(record)
                stored.append(body)
        if stored:
            if arrival_ms is None:
                arrival_ms = int(time.time() * 1000)
            session.log.append(arrival_ms, *stored)
        session.frames_malformed += malformed
        session.frames_received += len(frame_bodies)
        return len(stored)

    def ingest_frame(
        self, session: RegistrationSession, frame_body: bytes, arrival_ms: int | None = None
    ) -> Optional[StreamRecord]:
        """Ingest one frame as a batch of one, so it is in the log when
        this returns.  Returns the stored record, or None when nothing was
        stored."""
        if self.ingest_batch(session, (frame_body,), arrival_ms):
            return session.window_buffer[-1]
        return None

    # --- status ----------------------------------------------------------------

    def status_query(self, kind: int, hub_id: str = "") -> str:
        """Answer a status query as CSV text."""
        if kind == STATUS_LIST:
            out = io.StringIO()
            w = csv.writer(out)
            w.writerow(["hub_id", "state", "records_decoded", "fingerprint"])
            with self._lock:
                rows = sorted(self.sessions.values(), key=lambda s: s.hub_id)
            for s in rows:
                w.writerow(
                    [s.hub_id, s.state.value, s.records_decoded, s.fingerprint.digest]
                )
            return out.getvalue()
        session = self.get_session(hub_id)
        if kind == STATUS_LATEST:
            out = io.StringIO()
            w = csv.writer(out)
            names = [f.name for f in session.instance.plan.field_layout]
            w.writerow(["hub_id", "sequence", "timestamp_ms", *names])
            records = list(session.window_buffer)  # the loop appends while we read
            if records:
                newest = max(records, key=lambda r: r.sequence)
                w.writerow(
                    [
                        session.hub_id,
                        newest.sequence,
                        newest.timestamp_ms,
                        *["" if v is None else v for _, v in newest.values],
                    ]
                )
            return out.getvalue()
        if kind == STATUS_WINDOW:
            vsd = self.catalog.live(hub_id)
            if vsd is None:
                raise UnknownHub(f"no live definition for hub {hub_id!r}")
            result = eval_window_query(vsd.query, list(session.window_buffer))
            out = io.StringIO()
            w = csv.writer(out)
            w.writerow(["field", "op", "value"])
            for (name, value), (_, agg) in zip(result, vsd.query.aggregates):
                w.writerow([name, agg.value, "" if value is None else value])
            return out.getvalue()
        raise MalformedDocument(f"unknown status kind {kind}")




# --- TCP shell ---------------------------------------------------------------

class _Port:
    """One session's data port as the data plane sees it: the listening
    socket, the connection being served (None while listening), the bytes
    of that connection not yet split into frames, and, while accepting is
    backed off, when to watch the listener again."""

    __slots__ = ("session", "listener", "conn", "tail", "token_ok", "resume_at")

    def __init__(self, session: RegistrationSession, listener: socket.socket):
        self.session = session
        self.listener = listener
        self.conn: Optional[socket.socket] = None
        self.tail = bytearray()
        self.token_ok = False
        self.resume_at: Optional[float] = None


class _DataPlane:
    """One thread and one selector serving every data port.

    Only the loop thread touches the selector and the ports.  Another
    thread hands work over with _call: the request is queued, a byte on
    the wakeup socketpair wakes the loop, and the loop runs queued requests
    after each round of events, so no request lands in the middle of one.
    Requests are taken only while the loop runs, from start() until the
    loop exits; after that, add refuses and drop has nothing left to do.
    """

    def __init__(self, core: MiddlewareCore):
        self._core = core
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, (self._drain_wakeups, None))
        self._ports: dict[int, _Port] = {}  # by data port number
        self._paused: deque = deque()  # ports whose accept is backed off, oldest first
        self._requests: deque = deque()
        self._requests_lock = threading.Lock()
        self._open = False  # requests are taken (guarded by _requests_lock)
        self._serving = True
        self._thread = threading.Thread(target=self._run, name="data-plane", daemon=True)

    # --- called from other threads ---------------------------------------------

    def start(self) -> None:
        self._open = True
        self._thread.start()

    def add(self, session: RegistrationSession, listener: socket.socket) -> bool:
        """Serve a bound, listening socket for the session from now on.
        Returns False, having closed the socket, when the loop has stopped."""
        if self._call(self._add, session, listener, wait=False):
            return True
        listener.close()
        return False

    def drop(self, session: RegistrationSession) -> None:
        """Close the session's data port; returns once the loop can no
        longer touch the session."""
        self._call(self._drop, session.data_port, wait=True)

    def stop(self) -> None:
        if self._call(self._halt, wait=True):
            self._thread.join()
        for data_port in list(self._ports):
            self._drop(data_port)
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()

    def _call(self, fn, *args, wait: bool) -> bool:
        """Queue fn for the loop thread (and wait for it to run, if asked).
        Returns False, without running fn, when the loop is not running."""
        done = threading.Event() if wait else None
        with self._requests_lock:
            if not self._open:
                return False
            self._requests.append((fn, args, done))
            try:
                self._wake_w.send(b"\0")
            except BlockingIOError:
                pass  # the socketpair is full of wakeups the loop has yet to read
        if done is not None:
            done.wait()
        return True

    # --- the loop thread ---------------------------------------------------------

    def _run(self) -> None:
        try:
            while self._serving:
                timeout = None
                if self._paused:
                    timeout = max(0.0, self._paused[0].resume_at - time.monotonic())
                for key, _ in self._selector.select(timeout):
                    handler, port = key.data
                    handler(port)
                if self._paused:
                    self._resume_accepts()
                if self._requests:
                    self._serve_requests()
        finally:
            with self._requests_lock:
                self._open = False
            self._serve_requests()

    def _serve_requests(self) -> None:
        while True:
            with self._requests_lock:
                if not self._requests:
                    return
                fn, args, done = self._requests.popleft()
            try:
                fn(*args)
            finally:
                if done is not None:
                    done.set()

    def _drain_wakeups(self, _) -> None:
        try:
            self._wake_r.recv(4096)
        except BlockingIOError:
            pass

    def _halt(self) -> None:
        self._serving = False

    def _add(self, session: RegistrationSession, listener: socket.socket) -> None:
        listener.setblocking(False)
        port = _Port(session, listener)
        self._ports[session.data_port] = port
        self._selector.register(listener, selectors.EVENT_READ, (self._accept, port))

    def _drop(self, data_port: int) -> None:
        port = self._ports.pop(data_port, None)
        if port is None:
            return
        if port.conn is not None:
            self._selector.unregister(port.conn)
            port.conn.close()
        elif port.resume_at is None:
            self._selector.unregister(port.listener)
        port.listener.close()

    def _accept(self, port: _Port) -> None:
        try:
            conn, _ = port.listener.accept()
        except (BlockingIOError, InterruptedError, ConnectionAbortedError):
            return  # the connection went away before we took it
        except OSError:
            # out of descriptors, most likely: the listener would stay
            # readable and the loop would spin on it, so stop watching it
            # for a while; the connection waits in the backlog meanwhile
            self._selector.unregister(port.listener)
            port.resume_at = time.monotonic() + ACCEPT_BACKOFF_S
            self._paused.append(port)
            return
        conn.setblocking(False)
        # one connection at a time: the next one waits in the backlog
        self._selector.unregister(port.listener)
        port.conn = conn
        self._selector.register(conn, selectors.EVENT_READ, (self._read, port))

    def _resume_accepts(self) -> None:
        now = time.monotonic()
        while self._paused and self._paused[0].resume_at <= now:
            port = self._paused.popleft()
            port.resume_at = None
            if self._ports.get(port.session.data_port) is port:  # not dropped meanwhile
                self._selector.register(
                    port.listener, selectors.EVENT_READ, (self._accept, port)
                )

    def _hang_up(self, port: _Port) -> None:
        self._selector.unregister(port.conn)
        port.conn.close()
        port.conn = None
        port.tail.clear()
        port.token_ok = False
        self._selector.register(port.listener, selectors.EVENT_READ, (self._accept, port))

    def _read(self, port: _Port) -> None:
        try:
            chunk = port.conn.recv(RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""  # reset by the peer: same as a close
        if not chunk:
            self._hang_up(port)
            return
        # A partial frame grows in place, so a large frame that arrives over
        # many reads is copied once, not once per read.
        tail = port.tail
        if tail:
            tail += chunk
            data = tail
        else:
            data = chunk
        session = port.session
        pos = 0
        if not port.token_ok:
            if len(data) < wire.TOKEN_LEN:
                if data is chunk:
                    tail += chunk
                return
            if data[: wire.TOKEN_LEN] != session.token:
                session.bad_tokens += 1
                self._hang_up(port)
                return
            port.token_ok = True
            pos = wire.TOKEN_LEN
        bodies = []
        end = len(data)
        unpack_length = wire.U32.unpack_from
        shortest, longest = wire.FRAME_HEADER.size, wire.MAX_MESSAGE
        bad_length = False
        while end - pos >= 4:
            (length,) = unpack_length(data, pos)
            if not shortest <= length <= longest:
                bad_length = True
                break
            stop = pos + 4 + length
            if stop > end:
                break
            bodies.append(data[pos + 4 : stop])
            pos = stop
        if data is tail:
            del tail[:pos]
        else:
            tail += chunk[pos:]
        if bodies:
            try:
                self._core.ingest_batch(session, bodies)
            except Exception:
                # the record log could not be written, or a fault no typed
                # decode error covers: drop this connection, not the loop
                # that serves every other hub
                _log.exception("ingest for hub %r failed; dropping its connection", session.hub_id)
                session.batches_failed += 1
                self._hang_up(port)
                return
        if bad_length:
            session.bad_lengths += 1
            self._hang_up(port)


class MiddlewareServer:
    """Control listener and data plane around a MiddlewareCore."""

    def __init__(
        self,
        store_dir: str | os.PathLike,
        strategy: Strategy = Strategy.DGCW,
        host: str = "127.0.0.1",
        control_port: int = DEFAULT_CONTROL_PORT,
        port_range: tuple[int, int] = DEFAULT_DATA_PORTS,
    ):
        self.core = MiddlewareCore(store_dir, strategy, port_range)
        self.host = host
        self._data_plane = _DataPlane(self.core)
        self.core.on_teardown = self._data_plane.drop
        self._closing = threading.Event()
        self._control = socket.create_server((host, control_port))
        self._control.settimeout(0.25)
        self.control_port = self._control.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="control-accept", daemon=True
        )

    def start(self) -> "MiddlewareServer":
        self._data_plane.start()
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._control.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(
                target=self._serve_control, args=(conn,), name="control-conn", daemon=True
            ).start()

    def _serve_control(self, conn: socket.socket) -> None:
        with conn:
            while not self._closing.is_set():
                try:
                    opcode, payload = wire.read_message(conn)
                except (wire.ConnectionClosed, OSError):
                    return
                except MalformedDocument as exc:
                    self._nack(conn, wire.NACK_MALFORMED, str(exc))
                    return
                try:
                    if opcode == wire.OP_REGISTER:
                        self._handle_register(conn, payload)
                    elif opcode == wire.OP_STATUS:
                        kind, hub_id = wire.unpack_status(payload)
                        text = self.core.status_query(kind, hub_id)
                        wire.write_message(
                            conn, wire.OP_STATUS_OK, text.encode("utf-8")
                        )
                    else:
                        self._nack(conn, wire.NACK_MALFORMED, f"bad opcode {opcode:#x}")
                except UnknownHub as exc:
                    self._nack(conn, wire.NACK_UNKNOWN_HUB, str(exc))
                except NoFreePort as exc:
                    self._nack(conn, wire.NACK_NO_FREE_PORT, str(exc))
                except NameCollision as exc:
                    self._nack(conn, wire.NACK_NAME_COLLISION, str(exc))
                except HubStreamError as exc:
                    # document and schema defects, plus anything typed we
                    # did not map more specifically
                    self._nack(conn, wire.NACK_MALFORMED, str(exc))

    def _handle_register(self, conn: socket.socket, payload: bytes) -> None:
        raw, reregister = wire.unpack_register(payload)
        config = self.core.handle_register(raw, reregister=reregister)
        session = self.core.get_session_by_token(config.session_token)
        try:
            listener = socket.create_server((self.host, config.data_port))
        except OSError:
            self.core.teardown_session(session.hub_id)
            raise NoFreePort(f"cannot bind data port {config.data_port}")
        if not self._data_plane.add(session, listener):
            self.core.teardown_session(session.hub_id)
            raise NoFreePort("the server is stopping")
        wire.write_message(
            conn,
            wire.OP_ASSIGN,
            wire.pack_assign(
                config.data_port,
                config.session_token,
                config.wrapper_name,
                config.field_layout,
            ),
        )

    def _nack(self, conn: socket.socket, code: int, message: str) -> None:
        try:
            wire.write_message(conn, wire.OP_NACK, wire.pack_nack(code, message))
        except OSError:
            pass

    def stop(self) -> None:
        self._closing.set()
        try:
            self._control.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5)
        self.core.shutdown()
        self._data_plane.stop()
