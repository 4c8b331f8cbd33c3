"""The hub daemon: plugin host, schema synthesis, registration client,
sampling scheduler, filter engine, frame encoder, and stream sender.

A hub owns a set of sensor plugins.  It synthesizes its self-description
from their descriptors (in registration order), registers with the
middleware, and then samples each plugin on its declared period.  Samples
due at the same instant are batched into one frame; schema fields not due
or unavailable at that instant are encoded as nulls.  One thread runs a
session: the sampling loop writes its own frames to a non-blocking socket.
Frames wait in a bounded queue, and whenever no bytes are unsent, all of
them go out as one buffer, so a slow network stalls nothing and overflow
drops the oldest frame (counted) rather than blocking sampling.

Fault posture, mirroring the null-tolerance policy:

* A plugin whose sample is absent keeps its schema slot and streams nulls
  until it has been continuously absent for longer than the grace period;
  then it is dropped from the schema and one re-registration runs.
* Plugin add/remove while a session is live triggers re-registration,
  debounced over a 2 s window so bursts of churn coalesce into one.
* An unreachable server is retried with capped exponential backoff
  (base 500 ms, cap 30 s).  So is a stream assignment whose field layout
  does not hold the fields the hub registered (the same names and types,
  in any order: a plan cached for the same fields keeps its first order,
  and the hub encodes in the assigned order): the hub streams nothing on
  it and re-registers after the backoff.

All time flows through an injectable Clock so tests can drive grace and
debounce behavior on a simulated timeline.
"""

from __future__ import annotations

import select
import socket
import struct
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import wire
from .errors import (
    DuplicatePlugin,
    EmptySchema,
    RegistrationRefused,
    SchemaViolation,
    ServerUnreachable,
    TypeMismatch,
    UnknownPlugin,
)
from .sdd import HubContext, MicroSDD, SensorDescriptor, ValueType, build_musdd, serialize_musdd

__all__ = [
    "Clock",
    "RealClock",
    "SimClock",
    "PluginDescriptor",
    "SensorPlugin",
    "FilterMode",
    "FilterPolicy",
    "FilterEngine",
    "GracePolicy",
    "StreamEncoder",
    "SensorHub",
    "DEBOUNCE_MS",
    "KEYFRAME_EVERY",
    "BACKOFF_BASE_MS",
    "BACKOFF_CAP_MS",
]

DEBOUNCE_MS = 2000
KEYFRAME_EVERY = 100
BACKOFF_BASE_MS = 500
BACKOFF_CAP_MS = 30_000
QUEUE_CAPACITY = 1024
STALL_S = 10.0  # unsent bytes the data socket takes none of for this long end a session


# --- time ---------------------------------------------------------------------

class Clock(ABC):
    """Injectable time source.  wait_until returns when the clock reaches
    the target or the wake event is set, whichever is first."""

    @abstractmethod
    def now_ms(self) -> int: ...

    @abstractmethod
    def wait_until(self, target_ms: int, wake: threading.Event) -> None: ...


class RealClock(Clock):
    """Wall-clock milliseconds that never step.  The wall time is read
    once, at construction; after that the clock advances with
    time.monotonic(), so setting the system clock neither stalls nor
    bursts sampling, while frame timestamps stay wall-based."""

    def __init__(self):
        self._origin_ms = time.time() * 1000 - time.monotonic() * 1000

    def now_ms(self) -> int:
        return int(time.monotonic() * 1000 + self._origin_ms)

    def wait_until(self, target_ms: int, wake: threading.Event) -> None:
        while not wake.is_set():
            remaining = target_ms - self.now_ms()
            if remaining <= 0:
                return
            wake.wait(min(remaining / 1000.0, 0.5))


class SimClock(Clock):
    """Manually advanced clock.  Waiters re-check on every advance; the
    short condition timeout keeps externally-set wake events responsive."""

    def __init__(self, start_ms: int = 0):
        self._now = start_ms
        self._cond = threading.Condition()

    def now_ms(self) -> int:
        with self._cond:
            return self._now

    def advance(self, ms: int) -> None:
        with self._cond:
            self._now += ms
            self._cond.notify_all()

    def wait_until(self, target_ms: int, wake: threading.Event) -> None:
        with self._cond:
            while self._now < target_ms and not wake.is_set():
                self._cond.wait(timeout=0.05)


# --- plugins --------------------------------------------------------------------

@dataclass(frozen=True)
class PluginDescriptor:
    plugin_id: str
    sensor: SensorDescriptor
    transport_label: str = "sim"


class SensorPlugin(ABC):
    """The contract every sensor adapter implements.  sample() returns a
    value of the declared type, or None when the sensor is unavailable;
    it is always called from a single thread."""

    @abstractmethod
    def describe(self) -> PluginDescriptor: ...

    @abstractmethod
    def sample(self): ...

    def shutdown(self) -> None:
        return None


# --- filtering -------------------------------------------------------------------

class FilterMode(Enum):
    NONE = "none"
    DELTA = "delta"
    WINDOW_AVG = "avg"


@dataclass(frozen=True)
class FilterPolicy:
    mode: FilterMode = FilterMode.NONE
    threshold: float = 0.0
    window: int = 1

    def __post_init__(self):
        if self.mode is FilterMode.DELTA and self.threshold < 0:
            raise SchemaViolation("delta threshold must be >= 0")
        if self.mode is FilterMode.WINDOW_AVG and self.window < 1:
            raise SchemaViolation("averaging window must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "FilterPolicy":
        """none | delta:THRESHOLD | avg:N"""
        kind, _, arg = text.partition(":")
        if kind == "none" and not arg:
            return cls()
        if kind == "delta":
            return cls(mode=FilterMode.DELTA, threshold=float(arg))
        if kind == "avg":
            return cls(mode=FilterMode.WINDOW_AVG, window=int(arg))
        raise SchemaViolation(f"unknown filter policy {text!r}")


class FilterEngine:
    """Per-session filter state.  process() maps a sampled row to the row
    actually sent, or None when the whole frame is suppressed.

    DELTA: a numeric field changing by no more than the threshold since
    its last sent value is suppressed to null; an unchanged string
    likewise.  A change of NaN-ness (number to NaN or back) counts as a
    change; NaN after NaN is suppressed.  A frame in which nothing
    survived suppression is skipped entirely.  Every KEYFRAME_EVERY-th
    sample tick (tick 0 included) is a keyframe carrying all present
    values, bounding reconstruction drift.

    WINDOW_AVG(N): one output row per N ticks; numeric fields average
    their present samples, strings keep the latest present value, fields
    with no present sample in the window stay null.

    The mode's function and the per-field table are chosen once, here;
    process() only delegates.
    """

    def __init__(self, policy: FilterPolicy, field_layout):
        self.policy = policy
        self._layout = tuple(field_layout)
        self._table = tuple((name, vtype is ValueType.STRING) for name, vtype in self._layout)
        self._last_sent: dict = {}
        self._acc: dict = {name: [] for name, _ in self._layout}
        self._acc_ticks = 0
        self._process = {
            FilterMode.NONE: _pass_through,
            FilterMode.DELTA: self._delta,
            FilterMode.WINDOW_AVG: self._window_avg,
        }[policy.mode]

    def process(self, tick: int, row: dict) -> Optional[dict]:
        return self._process(tick, row)

    def _delta(self, tick: int, row: dict) -> Optional[dict]:
        get = row.get
        last_sent = self._last_sent
        out = {}
        anything_sent = False
        if tick % KEYFRAME_EVERY == 0:
            for name, _ in self._table:
                value = out[name] = get(name)
                if value is not None:
                    last_sent[name] = value
                    anything_sent = True
            return out if anything_sent else None
        threshold = self.policy.threshold
        for name, is_string in self._table:
            value = get(name)
            if value is None:
                out[name] = None
                continue
            last = last_sent.get(name)
            if is_string or last is None:
                changed = value != last
            else:
                diff = value - last
                # diff is NaN for NaN on either side (or inf - inf): then
                # only a change of NaN-ness is a change
                changed = abs(diff) > threshold or (
                    diff != diff and (value != value) != (last != last)
                )
            if changed:
                out[name] = last_sent[name] = value
                anything_sent = True
            else:
                out[name] = None
        return out if anything_sent else None

    def _window_avg(self, tick: int, row: dict) -> Optional[dict]:
        for name, _ in self._layout:
            value = row.get(name)
            if value is not None:
                self._acc[name].append(value)
        self._acc_ticks += 1
        if self._acc_ticks < self.policy.window:
            return None
        out = {}
        for name, vtype in self._layout:
            got = self._acc[name]
            if not got:
                out[name] = None
            elif vtype is ValueType.STRING:
                out[name] = got[-1]
            elif vtype is ValueType.INT:
                out[name] = round(sum(got) / len(got))
            else:
                out[name] = sum(got) / len(got)
        self._acc = {name: [] for name, _ in self._layout}
        self._acc_ticks = 0
        return out


def _pass_through(tick: int, row: dict) -> dict:
    return row


@dataclass(frozen=True)
class GracePolicy:
    """How long a plugin may stream nothing before it is dropped from the
    schema (and one re-registration runs)."""

    null_grace_ms: int = 30_000

    def __post_init__(self):
        if self.null_grace_ms <= 0:
            raise SchemaViolation("null_grace_ms must be positive")


# --- encoding ---------------------------------------------------------------------

_FIXED_CODE = {ValueType.INT: "q", ValueType.DOUBLE: "d"}
_EXACT_TYPE = {ValueType.INT: "int", ValueType.DOUBLE: "float"}
_FRAME_PREFIX = struct.Struct(">IQQ")  # length, sequence, timestamp_ms


def _compile_encoder(field_layout):
    """Generate one straight-line encode(sequence, timestamp_ms, row)
    function for this field layout (the exec idiom of namedtuple and
    dataclasses).

    Field names come from the server's ASSIGN, so they never enter the
    source: the source names field i only as K{i} (its name) and E{i}
    (its error text), both bound in the function's namespace.  When
    every field is fixed-width, one precompiled struct packs a whole
    frame of exact ints and floats in a single call; every other row
    takes a per-field path with the type checks inlined, in field order,
    so a TypeMismatch names the same field as a field-by-field loop.
    """
    count = len(field_layout)
    fixed = all(vtype in _FIXED_CODE for _, vtype in field_layout)
    namespace = {
        "TypeMismatch": TypeMismatch,
        "StructError": struct.error,
        "NULL": b"\x00",
        "JOIN": b"".join,
        "PREFIX": _FRAME_PREFIX.pack,
        "INT": struct.Struct(">Bq").pack,
        "DOUBLE": struct.Struct(">Bd").pack,
        "STRING": struct.Struct(">BI").pack,
    }
    lines = ["def encode(sequence, timestamp_ms, row):", "    get = row.get"]
    for i, (name, vtype) in enumerate(field_layout):
        namespace[f"K{i}"] = name
        namespace[f"E{i}"] = f"field {name!r} wants {vtype.value}, got "
        lines.append(f"    v{i} = get(K{i})")
    if fixed:
        checks = " and ".join(
            f"type(v{i}) is {_EXACT_TYPE[vtype]}" for i, (_, vtype) in enumerate(field_layout)
        )
        namespace["FRAME"] = struct.Struct(
            ">IQQ" + "".join("B" + _FIXED_CODE[vtype] for _, vtype in field_layout)
        ).pack
        values = "".join(f", 1, v{i}" for i in range(count))
        lines += [
            f"    if {checks or 'True'}:",
            "        try:",
            f"            return FRAME({16 + 9 * count}, sequence, timestamp_ms{values})",
            "        except StructError:",
            "            pass  # out of range: the per-field path raises it in field order",
        ]
    for i, (_, vtype) in enumerate(field_layout):
        v = f"v{i}"
        lines += [f"    if {v} is None:", f"        p{i} = NULL"]
        if vtype is ValueType.INT:
            lines += [
                f"    elif type({v}) is int or (isinstance({v}, int) and not isinstance({v}, bool)):",
                f"        p{i} = INT(1, {v})",
            ]
        elif vtype is ValueType.DOUBLE:
            lines += [
                f"    elif type({v}) is float:",
                f"        p{i} = DOUBLE(1, {v})",
                f"    elif isinstance({v}, (int, float)) and not isinstance({v}, bool):",
                f"        p{i} = DOUBLE(1, float({v}))",
            ]
        else:
            lines += [
                f"    elif isinstance({v}, str):",
                f"        b{i} = {v}.encode('utf-8')",
                f"        p{i} = STRING(1, len(b{i})) + b{i}",
            ]
        lines += ["    else:", f"        raise TypeMismatch(E{i} + type({v}).__name__)"]
    parts = ", ".join(f"p{i}" for i in range(count))
    lines += [
        f"    body = JOIN([{parts}])",
        "    return PREFIX(16 + len(body), sequence, timestamp_ms) + body",
    ]
    exec("\n".join(lines), namespace)
    return namespace["encode"]


class StreamEncoder:
    """Encodes value rows into wire frames in the server-assigned field
    order (the layout echoed in the stream assignment).  The encode
    function is generated once per layout, at construction."""

    def __init__(self, field_layout):
        self.field_layout = tuple(field_layout)
        self._encode = _compile_encoder(self.field_layout)

    def encode(self, sequence: int, timestamp_ms: int, row: dict) -> bytes:
        return self._encode(sequence, timestamp_ms, row)


# --- the hub -----------------------------------------------------------------------

class _PluginSlot:
    def __init__(self, plugin: SensorPlugin, descriptor: PluginDescriptor):
        self.plugin = plugin
        self.descriptor = descriptor
        self.absent_since: Optional[int] = None


class SensorHub:
    """Hosts plugins and runs the registration/streaming session loop."""

    def __init__(
        self,
        hub_id: str,
        server_address: tuple[str, int],
        filter_policy: FilterPolicy | None = None,
        grace_policy: GracePolicy | None = None,
        clock: Clock | None = None,
        context: HubContext | None = None,
    ):
        self.hub_id = hub_id
        self.server_address = server_address
        self.filter_policy = filter_policy or FilterPolicy()
        self.grace_policy = grace_policy or GracePolicy()
        self.clock = clock or RealClock()
        self.context = context

        self._slots: dict[str, _PluginSlot] = {}
        self._order: list[str] = []
        self._lock = threading.Lock()
        self._schema_epoch = 0
        self._epoch_changed_at = 0

        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._ever_registered = False

        self.registration_count = 0
        self.frames_sent = 0
        self.frames_enqueued = 0
        self.queue_dropped = 0
        self.sample_errors = 0

    @property
    def reregistrations(self) -> int:
        return max(0, self.registration_count - 1)

    # --- plugin management -----------------------------------------------------

    def register_plugin(self, plugin: SensorPlugin) -> PluginDescriptor:
        descriptor = plugin.describe()
        with self._lock:
            if descriptor.plugin_id in self._slots:
                raise DuplicatePlugin(f"plugin {descriptor.plugin_id!r} already registered")
            self._slots[descriptor.plugin_id] = _PluginSlot(plugin, descriptor)
            self._order.append(descriptor.plugin_id)
            self._bump_epoch_locked()
        self._wake.set()
        return descriptor

    def remove_plugin(self, plugin_id: str) -> None:
        with self._lock:
            slot = self._slots.pop(plugin_id, None)
            if slot is None:
                raise UnknownPlugin(f"no plugin {plugin_id!r}")
            self._order.remove(plugin_id)
            self._bump_epoch_locked()
        try:
            slot.plugin.shutdown()
        except Exception:
            pass
        self._wake.set()

    def _bump_epoch_locked(self) -> None:
        self._schema_epoch += 1
        self._epoch_changed_at = self.clock.now_ms()

    def plugins(self) -> list[PluginDescriptor]:
        with self._lock:
            return [self._slots[pid].descriptor for pid in self._order]

    def synthesize_musdd(self) -> MicroSDD:
        """Self-description in plugin registration order."""
        descriptors = self.plugins()
        if not descriptors:
            raise EmptySchema("no plugins registered")
        return build_musdd(self.hub_id, self.context, [d.sensor for d in descriptors])

    # --- session loop -------------------------------------------------------------

    def start(self) -> "SensorHub":
        self._thread = threading.Thread(target=self.run, name=f"hub-{self.hub_id}", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            # a session's flush ends within STALL_S
            self._thread.join(timeout=STALL_S + 1)
        with self._lock:
            slots = list(self._slots.values())
        for slot in slots:
            try:
                slot.plugin.shutdown()
            except Exception:
                pass

    def run(self) -> None:
        """Register, stream, re-register on schema changes or connection
        loss, until stopped.  Blocks; use start() for a background hub."""
        attempt = 0
        while not self._stop.is_set():
            with self._lock:
                epoch_at_doc = self._schema_epoch
            try:
                doc = self.synthesize_musdd()
            except EmptySchema:
                self._idle_wait(1000)
                continue
            try:
                assign = self._register_once(doc, reregister=self._ever_registered)
            except ServerUnreachable:
                self._backoff(attempt)
                attempt += 1
                continue
            except RegistrationRefused as exc:
                if exc.code == wire.NACK_NAME_COLLISION and not self._ever_registered:
                    # a stale session from a previous hub process; reclaim it
                    self._ever_registered = True
                    continue
                self._backoff(attempt)
                attempt += 1
                continue
            self._ever_registered = True
            schema = [(s.name, s.value_type) for s in doc.sensors]
            if len(assign.field_layout) != len(schema) or set(assign.field_layout) != set(schema):
                # not the fields we registered: streaming it would send
                # fields we do not have as nulls, so refuse it and retry
                # (their order may differ: rows are built by name)
                self._backoff(attempt)
                attempt += 1
                continue
            attempt = 0
            self.registration_count += 1
            try:
                data_sock = socket.create_connection(
                    (self.server_address[0], assign.data_port), timeout=STALL_S
                )
            except OSError:
                self._backoff(attempt)
                attempt += 1
                continue
            try:
                data_sock.sendall(assign.token)
                self._run_session(assign, data_sock, epoch_at_doc)
            except OSError:
                pass
            finally:
                try:
                    data_sock.close()
                except OSError:
                    pass

    def _idle_wait(self, ms: int) -> None:
        self._wake.clear()
        self.clock.wait_until(self.clock.now_ms() + ms, self._wake)

    def _backoff(self, attempt: int) -> None:
        delay = min(BACKOFF_CAP_MS, BACKOFF_BASE_MS * (2**attempt))
        self._idle_wait(delay)

    def _register_once(self, doc: MicroSDD, reregister: bool):
        try:
            sock = socket.create_connection(self.server_address, timeout=10)
        except OSError as exc:
            raise ServerUnreachable(f"cannot reach {self.server_address}: {exc}") from exc
        with sock:
            sock.settimeout(10)
            try:
                wire.write_message(
                    sock,
                    wire.OP_REGISTER,
                    wire.pack_register(serialize_musdd(doc), reregister),
                )
                opcode, payload = wire.read_message(sock)
            except (OSError, wire.ConnectionClosed) as exc:
                raise ServerUnreachable(f"registration connection failed: {exc}") from exc
        if opcode == wire.OP_NACK:
            code, message = wire.unpack_nack(payload)
            raise RegistrationRefused(code, message)
        if opcode != wire.OP_ASSIGN:
            raise ServerUnreachable(f"unexpected reply opcode {opcode:#x}")
        return wire.unpack_assign(payload)

    def _run_session(self, assign, data_sock: socket.socket, applied_epoch: int) -> None:
        """Sample, filter, encode and send on this thread until stopped or a
        re-registration is due, then flush what is queued.

        The socket is non-blocking.  Frames wait in a drop-oldest queue;
        whenever no bytes are unsent, every queued frame is joined into one
        buffer, and each pass tries one send.  A send error, or unsent bytes
        of which the socket takes none for STALL_S, raise OSError and end
        the session."""
        encoder = StreamEncoder(assign.field_layout)
        engine = FilterEngine(self.filter_policy, assign.field_layout)
        layout_names = {name for name, _ in assign.field_layout}
        with self._lock:
            slots = {
                pid: self._slots[pid]
                for pid in self._order
                if self._slots[pid].descriptor.sensor.name in layout_names
            }
        for slot in slots.values():
            slot.absent_since = None
        next_due = dict.fromkeys(slots, self.clock.now_ms())
        sequence = 0
        tick = 0

        queue: deque[bytes] = deque(maxlen=QUEUE_CAPACITY)
        unsent = memoryview(b"")
        unsent_frames = 0
        stall_at = 0.0  # time.monotonic() by which the socket must take a byte

        def send() -> None:
            nonlocal unsent, unsent_frames, stall_at
            if not unsent:
                if not queue:
                    return
                unsent, unsent_frames = memoryview(b"".join(queue)), len(queue)
                queue.clear()
                stall_at = time.monotonic() + STALL_S
            try:
                taken = data_sock.send(unsent)
            except BlockingIOError:
                taken = 0
            if taken:
                unsent = unsent[taken:]
                stall_at = time.monotonic() + STALL_S
                if not unsent:
                    self.frames_sent += unsent_frames
            elif time.monotonic() >= stall_at:
                raise TimeoutError(f"data connection took no byte for {STALL_S:g} s")

        data_sock.setblocking(False)
        while not self._stop.is_set():
            self._wake.clear()
            now = self.clock.now_ms()
            with self._lock:
                epoch = self._schema_epoch
                changed_at = self._epoch_changed_at
            if epoch != applied_epoch and now >= changed_at + DEBOUNCE_MS:
                break  # re-register with the new schema

            due = [pid for pid in slots if next_due[pid] <= now]
            if due:
                row = {}
                for pid in due:
                    slot = slots[pid]
                    sensor = slot.descriptor.sensor
                    next_due[pid] += sensor.sample_period_ms
                    value = row[sensor.name] = self._sample(slot)
                    if value is not None:
                        slot.absent_since = None
                    elif slot.absent_since is None:
                        slot.absent_since = now
                    elif now - slot.absent_since >= self.grace_policy.null_grace_ms:
                        del slots[pid]
                        try:
                            self.remove_plugin(pid)
                        except UnknownPlugin:
                            pass
                out = engine.process(tick, row)
                tick += 1
                if out is not None:
                    if len(queue) == queue.maxlen:
                        self.queue_dropped += 1
                    queue.append(encoder.encode(sequence, now, out))
                    sequence += 1
                    self.frames_enqueued += 1
            send()

            deadlines = [next_due[pid] for pid in slots]
            if epoch != applied_epoch:
                deadlines.append(changed_at + DEBOUNCE_MS)
            if unsent or queue or not deadlines:
                deadlines.append(self.clock.now_ms() + 250)
            self.clock.wait_until(min(deadlines), self._wake)

        # the flush keeps the stall deadline as it stands: progress no longer
        # moves it, so the session ends at most STALL_S from now
        deadline = stall_at if unsent else time.monotonic() + STALL_S
        send()
        while unsent or queue:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"data connection took no flush in {STALL_S:g} s")
            select.select((), (data_sock,), (), remaining)
            send()

    def _sample(self, slot: _PluginSlot):
        try:
            return slot.plugin.sample()
        except Exception:
            self.sample_errors += 1
            return None
