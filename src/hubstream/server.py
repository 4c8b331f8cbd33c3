"""The ingestion middleware: registration orchestration plus TCP shell.

MiddlewareCore is the engine: it runs the whole registration pipeline
in-process (parse, fingerprint, plan lookup/compile, virtual sensor
definition, port assignment, instance lifecycle),
ingests frames, and answers status queries.  Benchmarks and most
tests drive the core directly with no sockets involved.

MiddlewareServer is the network shell around a core: one thread runs one
non-blocking ``selectors`` loop that owns the control listener, every
control connection, every assigned data port and every hub connection, so
the server's thread count does not grow with the number of hubs or
clients.  The loop also owns the core, which takes no locks: every call
that changes it runs on the loop thread, or in stop() once the loop has
exited.  Another thread changes the core only through
MiddlewareServer.teardown() and stop(); it may read the sessions dict,
get_session, a session's counters and ports.active_count(), each one dict
read or len, atomic under the GIL.  Registration steps run in this order:

    parse -> fingerprint -> plan lookup/compile -> generate definition
          -> reserve port -> instantiate -> initialize -> start
          -> open record log -> bind data port -> reply

and the elapsed wall time of the core's steps, through opening the record
log, is recorded on the session as configuration_time_ms.  A failure at
any step rolls back everything the attempt created: no session entry, no
live definition, no reserved port, no running instance, no open log or
socket.  A data port that cannot be bound is refused as NoFreePort.

Control messages are split out with the same splitter as data frames and
answered on the loop thread, in order: a registration (data-port bind
included) or a status query.  Until a reply has gone out, that connection
is watched for writing instead of reading, so a client that does not read
its replies holds one reply and stalls nothing.  There is no worker
thread: in CPython it would take turns with ingest, not run beside it;
frames wait in the kernel meanwhile.  As in the paper, each hub has its
own data port, which serves one connection at a time (the next waits in
the backlog; a hub that reconnects is served again).  A connection opens
with the session token; after that every read takes up to RECV_BYTES,
every complete frame in it is split out and ingested as one batch, and a
partial frame waits for the next read.

A wrong token, or a length prefix below the frame header or above
wire.MAX_MESSAGE, closes the connection (counted on the session as
bad_tokens or bad_lengths) and the port goes back to listening.  A frame
that fails validation is counted as malformed and skipped.  If ingesting a
read raises anything else (the record log cannot be written, say), that
one connection is dropped and counted as batches_failed, and the loop goes
on serving every other port.  An accept that fails for want of a file
descriptor leaves that listener unwatched for ACCEPT_BACKOFF_S rather
than spinning on it.

Tearing a session down closes its sockets on the loop thread (between two
rounds of events, when another thread asks through teardown()) and returns
only once the loop can never touch the session again.  stop() ends the
loop and closes every socket, control connections included.

Ingest publishes a batch in this order.  For each frame: validate and
dedup (records_decoded moves); no record is built, and the wrapper keeps
the accepted body with the highest sequence number.  Then the accepted
frame bodies go to the record log in one unbuffered write, and only after
that write does frames_received move.  So a reader that sees
frames_received cover a frame finds that frame in the log.  A batch whose
append fails changes neither the log nor the session: the log is cut back
to its size before the write, the wrapper's dedup window, newest body and
counters are put back, and a resend of the batch is stored.  Records are
decoded on read: STATUS_LATEST and STATUS_WINDOW are two renderings of
one record, that highest-sequence body, decoded once per query.  No other
body is kept in memory.

Durability: the record log is written to the operating system once per
batch and never fsynced.  A write that fails (a full disk, say) leaves the
log and the session as they were before the batch.  A crash of the server
process loses at most the batch being ingested (the frames of one read, up
to RECV_BYTES); a crash of the machine can lose whatever the operating
system had not yet written.  A crash mid-write leaves a torn last entry,
which the next MiddlewareCore on the store cuts off (and logs) when it
opens, so the entries appended after it replay.  The bytes cut are
appended to ``<hub_id>.log.torn`` beside the log first: a corrupt length
in the middle of a log looks torn too, and the entries after it are kept
there.

Each accepted record is appended to a per-hub record log at
``<store>/data/<hub_id>.log``: an 8-byte big-endian arrival timestamp
(ms), then the frame exactly as received (length prefix included), so a
log replays through the same decode path that ingested it.  Every record
of one batch carries the batch's arrival time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import logging
import os
import secrets
import selectors
import shutil
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Optional

from . import wire, wrapper
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
from .sdd import fingerprint, parse_musdd
from .vsd import QUERY_OP, VsdCatalog, eval_window_query
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

# Most bytes taken from one connection per read.  One read is one ingest
# batch, and a control message waits for at most the batch being ingested.
RECV_BYTES = 64 * 1024

# How long a data port's listener goes unwatched after an accept fails for
# want of a file descriptor.
ACCEPT_BACKOFF_S = 0.1


class PortAllocator:
    """Hands out data ports from an inclusive range; released ports are
    reusable."""

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise ValueError(f"empty port range {lo}-{hi}")
        self._free = list(range(hi, lo - 1, -1))  # pop() yields lo first
        self._taken: set[int] = set()

    def reserve(self) -> int:
        if not self._free:
            raise NoFreePort("data port range exhausted")
        port = self._free.pop()
        self._taken.add(port)
        return port

    def release(self, port: int) -> None:
        if port in self._taken:
            self._taken.remove(port)
            self._free.append(port)

    def defer(self, port: int) -> None:
        """Hand a free port out again only after every other free port (its
        bind failed: something else holds it)."""
        if port in self._free:
            self._free.remove(port)
            self._free.insert(0, port)

    def active_count(self) -> int:
        return len(self._taken)


class RecordLog:
    """Append-only frame log for one hub, replayable through decode."""

    ARRIVAL = wire.U64

    def __init__(self, path: Path):
        self._path = path
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(path, "ab", buffering=0)
        self._size = os.fstat(self._fh.fileno()).st_size  # bytes of whole appends

    def append(self, arrival_ms: int, *frame_bodies: bytes) -> None:
        """Append one entry per frame body, all stamped arrival_ms, unbuffered,
        so the entries are with the operating system when this returns.  If
        the write fails (the disk is full, say), the file is cut back to its
        size before the call and the error raised: the log is as it was."""
        arrival = self.ARRIVAL.pack(arrival_ms)
        pack_length = wire.U32.pack
        entries = [b""]  # so the join puts an arrival stamp before every entry
        entries += [pack_length(len(body)) + body for body in frame_bodies]
        data = memoryview(arrival.join(entries))
        try:
            written = 0
            while written < len(data):  # a short write is followed by another
                written += self._fh.write(data[written:])
        except BaseException:
            os.ftruncate(self._fh.fileno(), self._size)
            raise
        self._size += written

    def close(self) -> None:
        self._fh.close()

    @staticmethod
    def replay(path: Path):
        """Yield (arrival_ms, frame_body) entries from a log file.  The file
        is read an entry at a time, so replay holds one entry in memory
        however long the log."""
        with open(path, "rb") as fh:
            while head := fh.read(12):
                if len(head) < 12:
                    raise FrameTooShort("record log truncated in an entry header")
                (arrival,) = wire.U64.unpack_from(head)
                (length,) = wire.U32.unpack_from(head, 8)
                body = fh.read(length)
                if len(body) != length:
                    raise FrameTooShort("record log truncated")
                yield arrival, body

    @staticmethod
    def recover(path: Path) -> None:
        """Cut a log file after its last complete entry, so what is appended
        next replays, and log how many bytes were cut.  They are first
        appended to a side file, ``<name>.torn``: a corrupt length looks like
        a torn entry, and the good entries after it must survive."""
        complete = 0
        with contextlib.suppress(FrameTooShort):
            for _, body in RecordLog.replay(path):
                complete += 12 + len(body)
        dropped = path.stat().st_size - complete
        if dropped:
            torn = path.with_name(path.name + ".torn")
            with open(path, "rb") as src, open(torn, "ab") as dst:
                src.seek(complete)
                shutil.copyfileobj(src, dst)
                dst.flush()
                os.fsync(dst.fileno())
            os.truncate(path, complete)
            _log.warning(
                "record log %s: dropped %d bytes after its last complete entry; saved them to %s",
                path, dropped, torn,
            )


class SessionState(Enum):
    ACTIVE = "active"
    TORN_DOWN = "torn_down"


@dataclass
class RegistrationSession:
    hub_id: str
    data_port: int
    instance: WrapperInstance
    token: bytes
    state: SessionState = SessionState.ACTIVE
    cache_hit: bool = False
    configuration_time_ms: float = 0.0
    frames_received: int = 0
    frames_malformed: int = 0
    bad_tokens: int = 0  # data connections that opened with a wrong token
    bad_lengths: int = 0  # data connections dropped for an impossible frame length
    batches_failed: int = 0  # data connections dropped because ingesting a read raised
    log: Optional[RecordLog] = None

    @property
    def window_buffer(self) -> tuple[StreamRecord, ...]:
        """The definition's count-1 window: the stored record with the
        highest sequence number, decoded on each read, or no record before
        the first is stored."""
        newest = self.instance.newest
        if newest is None:
            return ()
        return (wrapper.decode_record(self.instance.plan, newest, self.hub_id),)

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
    """The in-process middleware engine (no sockets).

    Not thread-safe: one owner thread makes every call that changes the
    core, and in a MiddlewareServer that owner is the loop thread (or stop()
    once the loop has exited).  Other threads may read, without a lock:
    the sessions dict, get_session, a session's counters and
    ports.active_count().  Each is one dict read or len, atomic under the
    GIL; a reader copies sessions.values() with list() before walking it.
    """

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
        # A crash mid-write leaves a torn last entry; cut it off once here,
        # not on every open of a log: a hub that re-registers reopens its log.
        for path in (self.store_dir / "data").glob("*.log"):
            RecordLog.recover(path)
        self.sessions: dict[str, RegistrationSession] = {}
        # shell hook, called with the session before its instance stops, so
        # a network wrapper can close the data port first
        self.on_teardown: Optional[Callable[[RegistrationSession], None]] = None

    # --- registration ------------------------------------------------------

    def handle_register(self, raw: bytes, reregister: bool = False) -> wire.AssignPayload:
        """Run the registration pipeline; returns what ASSIGN tells the hub.
        With reregister, an active session of the hub is torn down first
        (plan reuse applies); an unknown hub registers normally.  The
        session enters the table, ACTIVE, only once every step has run.

        Raises:
            MalformedDocument/UnknownVersion/SchemaViolation: bad document.
            NameCollision: hub already active and reregister not set.
            NoFreePort: port range exhausted.
        """
        t0 = time.perf_counter()
        doc = parse_musdd(raw)
        existing = self.sessions.pop(doc.hub_id, None) if reregister else None
        if doc.hub_id in self.sessions:
            raise NameCollision(f"hub {doc.hub_id!r} already registered")

        port = None
        instance = None
        try:
            if existing is not None:
                self._release(existing)
            plan, cache_hit = self.repository.lookup_or_add(
                fingerprint(doc), self.strategy, lambda: compile_plan(doc, self.strategy)
            )
            vsd = self.catalog.generate_vsd(doc, plan)
            port = self.ports.reserve()
            instance = instantiate(plan, doc.hub_id)
            instance.initialize()
            instance.start()
            session = RegistrationSession(
                hub_id=doc.hub_id,
                data_port=port,
                instance=instance,
                token=secrets.token_bytes(wire.TOKEN_LEN),
                cache_hit=cache_hit,
            )
            session.log = RecordLog(self.store_dir / "data" / f"{doc.hub_id}.log")
            session.configuration_time_ms = (time.perf_counter() - t0) * 1000.0
        except BaseException:
            self.catalog.teardown(doc.hub_id)
            if port is not None:
                self.ports.release(port)
            if instance is not None:
                _dispose_quietly(instance)
            raise
        self.sessions[doc.hub_id] = session
        return wire.AssignPayload(port, session.token, vsd.wrapper_name, plan.field_layout)

    def _release(self, session: RegistrationSession) -> None:
        """Close what a session taken out of the table holds, its data port
        first."""
        if self.on_teardown is not None:
            self.on_teardown(session)
        _dispose_quietly(session.instance)
        session.log.close()
        self.ports.release(session.data_port)
        self.catalog.teardown(session.hub_id)
        session.state = SessionState.TORN_DOWN

    def teardown_session(self, hub_id: str) -> None:
        session = self.sessions.pop(hub_id, None)
        if session is None:
            raise UnknownHub(f"no session for hub {hub_id!r}")
        self._release(session)

    def shutdown(self) -> None:
        for hub_id in list(self.sessions):
            self.teardown_session(hub_id)

    def get_session(self, hub_id: str) -> RegistrationSession:
        session = self.sessions.get(hub_id)
        if session is None:
            raise UnknownHub(f"no session for hub {hub_id!r}")
        return session

    def get_session_by_token(self, token: bytes) -> RegistrationSession:
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

        Each frame is validated and deduplicated without being decoded.
        The accepted bodies go to the record log in one write, and only
        then does frames_received move.  Malformed frames and sequence
        regressions are counted and skipped; duplicates are dropped by the
        wrapper.  If anything raises, the log append included, the wrapper's
        window, newest body and counters are put back as they were before
        the batch, so a resend of the batch is stored.
        """
        instance = session.instance
        on_stream_element = instance.on_stream_element
        saved = (
            instance.last_sequence, instance._seen, instance.newest,
            instance.records_decoded, instance.duplicates_dropped, instance.sequence_regressions,
        )
        stored = []
        malformed = 0
        try:
            for body in frame_bodies:
                try:
                    accepted = on_stream_element(body)
                except (
                    FrameTooShort, TypeTagMismatch, TrailingBytes, InvalidText, SequenceRegression
                ):
                    malformed += 1
                    continue
                if accepted is not None:
                    stored.append(accepted)
            if stored:
                if arrival_ms is None:
                    arrival_ms = int(time.time() * 1000)
                session.log.append(arrival_ms, *stored)
        except BaseException:
            (
                instance.last_sequence, instance._seen, instance.newest,
                instance.records_decoded, instance.duplicates_dropped,
                instance.sequence_regressions,
            ) = saved
            raise
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
            return wrapper.decode_record(session.instance.plan, frame_body, session.hub_id)
        return None

    # --- status ----------------------------------------------------------------

    def status_query(self, kind: int, hub_id: str = "") -> str:
        """Answer a status query as CSV text."""
        if kind == STATUS_LIST:
            out = io.StringIO()
            w = csv.writer(out)
            w.writerow(["hub_id", "state", "records_decoded", "fingerprint"])
            for s in sorted(self.sessions.values(), key=lambda s: s.hub_id):
                w.writerow(
                    [s.hub_id, s.state.value, s.records_decoded, s.instance.plan.fingerprint.digest]
                )
            return out.getvalue()
        session = self.get_session(hub_id)
        if kind not in (STATUS_LATEST, STATUS_WINDOW):
            raise MalformedDocument(f"unknown status kind {kind}")
        # both kinds render the one record with the highest sequence number
        window = session.window_buffer
        newest = window[0] if window else None
        field_names = session.instance.plan.field_names
        out = io.StringIO()
        w = csv.writer(out)
        if kind == STATUS_LATEST:
            w.writerow(["hub_id", "sequence", "timestamp_ms", *field_names])
            if newest is not None:
                w.writerow(
                    [
                        session.hub_id,
                        newest.sequence,
                        newest.timestamp_ms,
                        *["" if v is None else v for _, v in newest.values],
                    ]
                )
        else:
            w.writerow(["field", "op", "value"])
            for name, value in eval_window_query(field_names, newest):
                w.writerow([name, QUERY_OP, "" if value is None else value])
        return out.getvalue()




# --- TCP shell ---------------------------------------------------------------

# NACK codes by refusal; any other HubStreamError is NACK_MALFORMED.
_NACK_CODES = {
    UnknownHub: wire.NACK_UNKNOWN_HUB,
    NoFreePort: wire.NACK_NO_FREE_PORT,
    NameCollision: wire.NACK_NAME_COLLISION,
}


def _split(data, pos: int, shortest: int):
    """Split the complete length-prefixed messages out of data from pos on.
    Returns their bodies, the position of the first byte not split, and
    whether a length below shortest or above wire.MAX_MESSAGE stopped there."""
    bodies = []
    end = len(data)
    unpack_length = wire.U32.unpack_from
    longest = wire.MAX_MESSAGE
    while end - pos >= 4:
        (length,) = unpack_length(data, pos)
        if not shortest <= length <= longest:
            return bodies, pos, True
        stop = pos + 4 + length
        if stop > end:
            break
        bodies.append(data[pos + 4 : stop])
        pos = stop
    return bodies, pos, False


@dataclass(eq=False, slots=True)
class _Port:
    """One session's data port as the loop sees it: the listening socket,
    the connection being served (None while listening) and the bytes of
    that connection not yet split into frames."""

    session: RegistrationSession
    listener: socket.socket
    conn: Optional[socket.socket] = None
    tail: bytearray = field(default_factory=bytearray)
    token_ok: bool = False


@dataclass(eq=False, slots=True)
class _Control:
    """One control connection: the bytes not yet split into messages, the
    messages not yet answered, the unsent part of a reply, and whether to
    hang up once every reply is sent."""

    sock: socket.socket
    tail: bytearray = field(default_factory=bytearray)
    pending: deque = field(default_factory=deque)
    out: bytearray = field(default_factory=bytearray)
    hang_up: bool = False


class MiddlewareServer:
    """The network shell around a MiddlewareCore, served by one loop thread.

    The loop thread owns the core, the selector and the sockets: it makes
    every call that changes them, and stop() makes them only once the loop
    has exited.  Another thread changes nothing but through teardown() and
    stop(), which hand work over with _call: the request is queued, a byte
    on the wakeup socketpair wakes the loop, and the loop runs queued
    requests after each round of events, so no request lands in the middle
    of one.  (On the loop thread itself, _call runs the request at once.)
    Requests are taken only while the loop runs, from start() until the
    loop exits.  Other threads may read what MiddlewareCore lists as safe
    to read: core.sessions, core.get_session, a session's counters and
    core.ports.active_count().
    """

    def __init__(
        self,
        store_dir: str | os.PathLike,
        strategy: Strategy = Strategy.DGCW,
        host: str = "127.0.0.1",
        control_port: int = DEFAULT_CONTROL_PORT,
        port_range: tuple[int, int] = DEFAULT_DATA_PORTS,
    ):
        self.core = MiddlewareCore(store_dir, strategy, port_range)
        # runs on the owner: the loop, or stop() once the loop has exited
        self.core.on_teardown = lambda session: self._drop(session.data_port)
        self.host = host
        self._control = socket.create_server((host, control_port))
        self._control.setblocking(False)
        self.control_port = self._control.getsockname()[1]
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, (self._drain_wakeups, None))
        self._selector.register(self._control, selectors.EVENT_READ, (self._accept_control, None))
        self._ports: dict[int, _Port] = {}  # by data port number
        self._paused: deque = deque()  # (resume time, key) of backed-off listeners, oldest first
        self._requests: deque = deque()
        self._requests_lock = threading.Lock()
        self._open = False  # requests are taken (guarded by _requests_lock)
        self._serving = True
        self._thread = threading.Thread(target=self._run, name="server-loop", daemon=True)

    # --- called from other threads ---------------------------------------------

    def start(self) -> "MiddlewareServer":
        self._open = True
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the loop, tear every session down and close every socket,
        held control connections included.  Stopping again does nothing."""
        if self._call(self._halt):
            self._thread.join()
        self.core.shutdown()  # its teardown hook drops each data port
        watched = self._selector.get_map() or {}  # None once the selector is closed
        for key in [*watched.values(), *(key for _, key in self._paused)]:
            key.fileobj.close()
        self._selector.close()
        self._wake_w.close()

    def teardown(self, hub_id: str) -> None:
        """Tear the hub's session down on the loop thread, or on this one
        when no loop runs, and return once its data port is closed.

        Raises:
            UnknownHub: the hub has no session.
        """
        if not self._call(self.core.teardown_session, hub_id):
            self.core.teardown_session(hub_id)

    def _call(self, fn, *args) -> bool:
        """Run fn on the loop thread and return once it has run: at once on
        the loop thread itself, between two rounds of events from any other.
        What fn raises is raised here, on the caller.  Returns False,
        without running fn, when the loop is not running."""
        if threading.current_thread() is self._thread:
            fn(*args)
            return True
        done = threading.Event()
        failed: list[Exception] = []
        with self._requests_lock:
            if not self._open:
                return False
            self._requests.append((fn, args, done, failed))
            # if the send would block, the socketpair is full of unread wakeups
            with contextlib.suppress(BlockingIOError):
                self._wake_w.send(b"\0")
        done.wait()
        if failed:
            raise failed[0]
        return True

    # --- the loop thread ---------------------------------------------------------

    def _run(self) -> None:
        try:
            while self._serving:
                timeout = None
                if self._paused:
                    timeout = max(0.0, self._paused[0][0] - time.monotonic())
                for key, _ in self._selector.select(timeout):
                    if key.fileobj.fileno() >= 0:  # not closed earlier in this round
                        handler, target = key.data
                        handler(target)
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
                fn, args, done, failed = self._requests.popleft()
            try:
                fn(*args)
            except Exception as exc:  # the caller's to handle, not the loop's
                failed.append(exc)
            finally:
                done.set()

    def _drain_wakeups(self, _) -> None:
        with contextlib.suppress(BlockingIOError):
            self._wake_r.recv(4096)

    def _halt(self) -> None:
        self._serving = False

    def _take(self, listener: socket.socket) -> Optional[socket.socket]:
        """Accept one connection, non-blocking; None when there is none."""
        try:
            sock, _ = listener.accept()
        except (BlockingIOError, InterruptedError, ConnectionAbortedError):
            return None  # the connection went away before we took it
        except OSError:
            # out of descriptors, most likely: the listener would stay
            # readable and the loop would spin on it, so stop watching it
            # for a while; the connection waits in the backlog meanwhile
            key = self._selector.unregister(listener)
            self._paused.append((time.monotonic() + ACCEPT_BACKOFF_S, key))
            return None
        sock.setblocking(False)
        return sock

    def _resume_accepts(self) -> None:
        now = time.monotonic()
        while self._paused and self._paused[0][0] <= now:
            _, key = self._paused.popleft()
            if key.fileobj.fileno() >= 0:  # not closed meanwhile
                self._selector.register(key.fileobj, key.events, key.data)

    # --- data ports ----------------------------------------------------------------

    def _drop(self, data_port: int) -> None:
        port = self._ports.pop(data_port, None)
        if port is None:
            return
        if port.conn is not None:
            self._selector.unregister(port.conn)
            port.conn.close()
        elif port.listener in self._selector.get_map():  # not backed off
            self._selector.unregister(port.listener)
        port.listener.close()

    def _accept_data(self, port: _Port) -> None:
        conn = self._take(port.listener)
        if conn is None:
            return
        # one connection at a time: the next one waits in the backlog
        self._selector.unregister(port.listener)
        port.conn = conn
        self._selector.register(conn, selectors.EVENT_READ, (self._read, port))

    def _hang_up(self, port: _Port) -> None:
        self._selector.unregister(port.conn)
        port.conn.close()
        port.conn = None
        port.tail.clear()
        port.token_ok = False
        self._selector.register(port.listener, selectors.EVENT_READ, (self._accept_data, port))

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
        bodies, pos, bad_length = _split(data, pos, wire.FRAME_HEADER.size)
        if data is tail:
            del tail[:pos]
        else:
            tail += chunk[pos:]
        if bodies:
            try:
                self.core.ingest_batch(session, bodies)
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

    # --- control connections ---------------------------------------------------------

    def _accept_control(self, _) -> None:
        sock = self._take(self._control)
        if sock is not None:
            self._selector.register(sock, selectors.EVENT_READ, (self._on_control, _Control(sock)))

    def _on_control(self, conn: _Control) -> None:
        """Read control messages, then answer them one at a time, each reply
        sent before the next message is answered.  Until a reply has gone
        out the socket is watched for writing, not reading, so a client
        that does not read its replies holds one reply and one read."""
        if not conn.out:
            try:
                chunk = conn.sock.recv(RECV_BYTES)
            except BlockingIOError:
                return
            except OSError:
                chunk = b""  # reset by the peer: same as a close
            if not chunk:
                self._close_control(conn)
                return
            conn.tail += chunk
            messages, pos, conn.hang_up = _split(conn.tail, 0, 1)
            del conn.tail[:pos]
            conn.pending += messages
            if conn.hang_up:
                conn.pending.append(None)  # refused, then the connection closes
        while conn.out or conn.pending:
            if not conn.out:
                try:
                    conn.out += self._answer(conn.pending.popleft())
                except Exception:
                    _log.exception("a control request failed; dropping its connection")
                    self._close_control(conn)
                    return
            try:
                sent = conn.sock.send(conn.out)
            except BlockingIOError:
                sent = 0
            except OSError:
                self._close_control(conn)
                return
            del conn.out[:sent]
            if conn.out:
                self._selector.modify(conn.sock, selectors.EVENT_WRITE, (self._on_control, conn))
                return
        if conn.hang_up:
            self._close_control(conn)
        else:
            self._selector.modify(conn.sock, selectors.EVENT_READ, (self._on_control, conn))

    def _close_control(self, conn: _Control) -> None:
        self._selector.unregister(conn.sock)
        conn.sock.close()

    def _answer(self, message: Optional[bytearray]) -> bytes:
        """The framed reply to one control message (None: a bad length)."""
        try:
            if message is None:
                raise MalformedDocument("control message length out of range")
            opcode, payload = message[0], bytes(message[1:])
            if opcode == wire.OP_REGISTER:
                return wire.pack_message(wire.OP_ASSIGN, self._register(payload))
            if opcode == wire.OP_STATUS:
                text = self.core.status_query(*wire.unpack_status(payload))
                return wire.pack_message(wire.OP_STATUS_OK, text.encode("utf-8"))
            raise MalformedDocument(f"bad opcode {opcode:#x}")
        except HubStreamError as exc:
            code = _NACK_CODES.get(type(exc), wire.NACK_MALFORMED)
            return wire.pack_message(wire.OP_NACK, wire.pack_nack(code, str(exc)))

    def _register(self, payload: bytes) -> bytes:
        """Register, bind the data port and serve it; returns ASSIGN's payload."""
        raw, reregister = wire.unpack_register(payload)
        assign = self.core.handle_register(raw, reregister=reregister)
        session = self.core.get_session_by_token(assign.token)
        try:
            listener = socket.create_server((self.host, assign.data_port))
        except OSError:
            self.core.teardown_session(session.hub_id)
            self.core.ports.defer(assign.data_port)
            raise NoFreePort(f"cannot bind data port {assign.data_port}")
        listener.setblocking(False)
        port = self._ports[assign.data_port] = _Port(session, listener)
        self._selector.register(listener, selectors.EVENT_READ, (self._accept_data, port))
        return wire.pack_assign(assign.data_port, assign.token, assign.wrapper_name, assign.field_layout)
