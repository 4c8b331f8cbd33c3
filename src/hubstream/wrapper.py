"""Ingest wrapper plans, the plan repository, and the wrapper lifecycle.

Two strategies turn a hub's schema into a frame decoder:

* SPSW, the generic single wrapper: one interpretive decode routine shared
  by every schema.  It consults the field list for each record, validates
  presence tags, and branches on the declared type per field.  Nothing is
  specialized, so its serialized form is a constant few bytes and one copy
  serves all hubs.

* DGCW, the per-schema customized wrapper: compiled once per schema
  fingerprint.  Compilation precomputes the decode work a generic wrapper
  repeats per record: a single precompiled struct covering the whole field
  region (taken when the frame length matches the all-present layout of a
  fixed-width schema) and, for the general case, a per-field list of
  specialized step closures that never consult the schema again.  The
  specialized path trusts frame lengths from a conforming encoder; it does
  not re-validate presence tags (SPSW does, and raises TypeTagMismatch).

Both strategies must decode every valid frame identically; the generic
path doubles as the oracle for the specialized one in tests.

Plans are cached by schema fingerprint in a PlanRepository and persisted
one file per plan under ``<store>/plans/<strategy>/<digest>.plan`` with a
self-describing header (magic ``MSHP``, format version, strategy byte,
field table).  The SPSW plan persists as a single generic file keyed by
the empty-schema digest regardless of how many schemas use it; the field
layout each SPSW registration needs at runtime lives on the in-memory
plan object and on the wrapper instance, not on disk.

A WrapperInstance drives one hub's stream through the five-method
lifecycle: initialize, start, stop, dispose, and on_stream_element, with
the state machine

    CREATED -> INITIALIZED -> RUNNING <-> STOPPED -> DISPOSED

where initialize is accepted at most once, records are accepted only in
RUNNING, and DISPOSED is absorbing.
"""

from __future__ import annotations

import os
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Optional

from .errors import (
    FrameTooShort,
    IllegalTransition,
    InvalidText,
    MalformedDocument,
    MissingInitParam,
    RepositoryIO,
    SequenceRegression,
    TrailingBytes,
    TypeTagMismatch,
    UnknownWrapper,
)
from .sdd import GENERIC_SCHEMA_DIGEST, MicroSDD, SchemaFingerprint, ValueType
from .wire import FRAME_HEADER, F64, I64, U32, pack_field_table, unpack_field_table

__all__ = [
    "Strategy",
    "FieldSpec",
    "WrapperPlan",
    "StreamRecord",
    "WrapperConnectionRequest",
    "LifecycleState",
    "WrapperInstance",
    "PlanRepository",
    "compile_plan",
    "serialize_plan",
    "load_plan",
    "decode_record",
    "wrapper_name_for",
    "parse_wrapper_name",
    "PLAN_MAGIC",
    "DEDUP_WINDOW",
]

PLAN_MAGIC = b"MSHP"
PLAN_FORMAT_VERSION = 1

# Reordering tolerance: how many most-recently-accepted sequence numbers
# are remembered for duplicate detection; anything older is a regression.
DEDUP_WINDOW = 64


class Strategy(Enum):
    """Wrapper build strategy."""

    SPSW = ("spsw", 1)
    DGCW = ("dgcw", 2)

    def __init__(self, tag: str, code: int):
        self.tag = tag
        self.code = code

    @classmethod
    def from_tag(cls, tag: str) -> "Strategy":
        for s in cls:
            if s.tag == tag:
                return s
        raise ValueError(f"unknown strategy {tag!r}")

    @classmethod
    def from_code(cls, code: int) -> "Strategy":
        for s in cls:
            if s.code == code:
                return s
        raise MalformedDocument(f"unknown strategy code {code}")


@dataclass(frozen=True)
class FieldSpec:
    """One field of a plan's layout.  fixed_offset is the field's presence
    byte position within the frame's field region when every field is
    present; populated on DGCW plans for each field up to and including
    the first STRING field (after which positions float), None on SPSW."""

    name: str
    value_type: ValueType
    fixed_offset: Optional[int] = None


@dataclass(frozen=True)
class StreamRecord:
    """One decoded sample row.  values holds (field name, value) in schema
    order; a None value is a null (sensor absent at sample time)."""

    hub_id: str
    sequence: int
    timestamp_ms: int
    values: tuple


@dataclass(frozen=True)
class WrapperPlan:
    fingerprint: SchemaFingerprint
    strategy: Strategy
    field_layout: tuple[FieldSpec, ...]
    plan_size_bytes: int
    compiled_at: float = field(compare=False)
    _decode: Callable = field(compare=False, repr=False)

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.field_layout)


@dataclass(frozen=True)
class WrapperConnectionRequest:
    """Address block handed from the virtual-sensor side to the repository:
    which wrapper to run and how to initialize it."""

    wrapper_name: str
    init_params: dict


def wrapper_name_for(strategy: Strategy, fingerprint: SchemaFingerprint) -> str:
    return f"{strategy.tag}_{fingerprint.digest}"


def parse_wrapper_name(name: str) -> tuple[Strategy, str]:
    tag, _, digest = name.partition("_")
    try:
        return Strategy.from_tag(tag), digest
    except ValueError as exc:
        raise UnknownWrapper(f"unresolvable wrapper name {name!r}") from exc


# --- decoding -------------------------------------------------------------

_FIXED_PAYLOAD = 8  # INT and DOUBLE both carry 8 bytes after the presence byte


def _decode_fields_generic(layout, data: bytes, pos: int) -> tuple:
    """The SPSW path: walk the field list, validating presence tags and
    branching on the declared type for every field of every record."""
    out = []
    end = len(data)
    for spec in layout:
        if pos >= end:
            raise FrameTooShort(f"frame ends before field {spec.name!r}")
        presence = data[pos]
        pos += 1
        if presence == 0x00:
            out.append((spec.name, None))
            continue
        if presence != 0x01:
            raise TypeTagMismatch(
                f"presence tag {presence:#04x} at field {spec.name!r}"
            )
        vt = spec.value_type
        try:
            if vt is ValueType.INT:
                (value,) = I64.unpack_from(data, pos)
                pos += 8
            elif vt is ValueType.DOUBLE:
                (value,) = F64.unpack_from(data, pos)
                pos += 8
            else:
                (str_len,) = U32.unpack_from(data, pos)
                pos += 4
                if pos + str_len > end:
                    raise FrameTooShort(f"frame ends inside field {spec.name!r}")
                value = data[pos : pos + str_len].decode("utf-8")
                pos += str_len
        except struct.error as exc:
            raise FrameTooShort(f"frame ends inside field {spec.name!r}") from exc
        except UnicodeDecodeError as exc:
            raise InvalidText(f"field {spec.name!r} is not valid UTF-8") from exc
        out.append((spec.name, value))
    if pos != end:
        raise TrailingBytes(f"{end - pos} bytes beyond the last field")
    return tuple(out)


def _make_int_step(name: str):
    unpack_from = I64.unpack_from

    def step(data: bytes, pos: int):
        try:
            (value,) = unpack_from(data, pos)
        except struct.error as exc:
            raise FrameTooShort(f"frame ends inside field {name!r}") from exc
        return value, pos + 8

    return step


def _make_double_step(name: str):
    unpack_from = F64.unpack_from

    def step(data: bytes, pos: int):
        try:
            (value,) = unpack_from(data, pos)
        except struct.error as exc:
            raise FrameTooShort(f"frame ends inside field {name!r}") from exc
        return value, pos + 8

    return step


def _make_string_step(name: str):
    unpack_from = U32.unpack_from

    def step(data: bytes, pos: int):
        try:
            (str_len,) = unpack_from(data, pos)
        except struct.error as exc:
            raise FrameTooShort(f"frame ends inside field {name!r}") from exc
        pos += 4
        if pos + str_len > len(data):
            raise FrameTooShort(f"frame ends inside field {name!r}")
        try:
            value = data[pos : pos + str_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidText(f"field {name!r} is not valid UTF-8") from exc
        return value, pos + str_len

    return step


_STEP_FACTORY = {
    ValueType.INT: _make_int_step,
    ValueType.DOUBLE: _make_double_step,
    ValueType.STRING: _make_string_step,
}


def _build_dgcw_decoder(layout: tuple[FieldSpec, ...]) -> Callable:
    """Precompute everything the generic path looks up per record."""
    names = tuple(spec.name for spec in layout)
    steps = tuple(
        (spec.name, _STEP_FACTORY[spec.value_type](spec.name)) for spec in layout
    )

    def walk(data: bytes, pos: int) -> tuple:
        out = []
        end = len(data)
        for name, step in steps:
            if pos >= end:
                raise FrameTooShort(f"frame ends before field {name!r}")
            presence = data[pos]
            pos += 1
            if presence:
                value, pos = step(data, pos)
                out.append((name, value))
            else:
                out.append((name, None))
        if pos != end:
            raise TrailingBytes(f"{end - pos} bytes beyond the last field")
        return tuple(out)

    fixed_width = all(spec.value_type is not ValueType.STRING for spec in layout)
    if not fixed_width:
        return walk

    codes = "".join(
        "Bq" if spec.value_type is ValueType.INT else "Bd" for spec in layout
    )
    all_present = struct.Struct(">" + codes)
    nominal = all_present.size
    unpack = all_present.unpack_from

    def decode(data: bytes, pos: int) -> tuple:
        if len(data) - pos == nominal:
            flat = unpack(data, pos)
            return tuple(zip(names, flat[1::2]))
        return walk(data, pos)

    return decode


def decode_record(plan: WrapperPlan, frame: bytes, hub_id: str = "") -> StreamRecord:
    """Decode one frame body (sequence + timestamp + field region) into a
    typed record.  The caller strips the length prefix.

    Raises:
        FrameTooShort: frame truncated inside the header or a field.
        TypeTagMismatch: SPSW only; presence byte is neither 0x00 nor 0x01.
        TrailingBytes: bytes remain after the last declared field.
        InvalidText: a STRING field is not valid UTF-8.
    """
    if len(frame) < FRAME_HEADER.size:
        raise FrameTooShort(f"frame body {len(frame)}B, header needs 16B")
    sequence, timestamp_ms = FRAME_HEADER.unpack_from(frame)
    values = plan._decode(frame, FRAME_HEADER.size)
    return StreamRecord(hub_id, sequence, timestamp_ms, values)


# --- compilation and persistence -------------------------------------------

def _layout_from_doc(doc: MicroSDD, with_offsets: bool) -> tuple[FieldSpec, ...]:
    specs = []
    offset = 0
    offsets_valid = True
    for sensor in doc.sensors:
        specs.append(
            FieldSpec(
                name=sensor.name,
                value_type=sensor.value_type,
                fixed_offset=offset if (with_offsets and offsets_valid) else None,
            )
        )
        if sensor.value_type is ValueType.STRING:
            offsets_valid = False
        offset += 1 + _FIXED_PAYLOAD
    return tuple(specs)


def _plan_bytes(strategy: Strategy, layout: tuple[FieldSpec, ...]) -> bytes:
    if strategy is Strategy.SPSW:
        table = pack_field_table([])
    else:
        table = pack_field_table([(f.name, f.value_type) for f in layout])
    return PLAN_MAGIC + bytes([PLAN_FORMAT_VERSION, strategy.code]) + table


def compile_plan(doc: MicroSDD, strategy: Strategy) -> WrapperPlan:
    """Build a decode plan for the document's schema.

    DGCW precomputes fixed offsets, per-field step closures, and the
    all-present struct for fixed-width schemas; SPSW parameterizes the
    shared generic routine with the field list and does all interpretation
    per record.
    """
    from .sdd import fingerprint as _fingerprint

    fp = _fingerprint(doc)
    if strategy is Strategy.DGCW:
        layout = _layout_from_doc(doc, with_offsets=True)
        decoder = _build_dgcw_decoder(layout)
    else:
        layout = _layout_from_doc(doc, with_offsets=False)
        decoder = lambda data, pos, _layout=layout: _decode_fields_generic(
            _layout, data, pos
        )
    raw = _plan_bytes(strategy, layout)
    return WrapperPlan(
        fingerprint=fp,
        strategy=strategy,
        field_layout=layout,
        plan_size_bytes=len(raw),
        compiled_at=time.time(),
        _decode=decoder,
    )


def serialize_plan(plan: WrapperPlan) -> bytes:
    """Byte form written to the plan store.  Deterministic: independent of
    compile time and, for SPSW, of the schema (the generic plan is one
    constant byte string)."""
    return _plan_bytes(plan.strategy, plan.field_layout)


def load_plan(data: bytes, digest: str) -> WrapperPlan:
    """Rebuild a plan from its file bytes.  The digest comes from the file
    name; offsets and decoders are recomputed from the field table."""
    if data[:4] != PLAN_MAGIC:
        raise MalformedDocument("not a plan file (bad magic)")
    if len(data) < 6:
        raise MalformedDocument("plan file truncated")
    if data[4] != PLAN_FORMAT_VERSION:
        raise MalformedDocument(f"unsupported plan format version {data[4]}")
    strategy = Strategy.from_code(data[5])
    fields, end = unpack_field_table(data, 6)
    if end != len(data):
        raise TrailingBytes("plan file has trailing bytes")

    specs = []
    offset = 0
    offsets_valid = strategy is Strategy.DGCW
    for name, vtype in fields:
        specs.append(
            FieldSpec(name, vtype, offset if offsets_valid else None)
        )
        if vtype is ValueType.STRING:
            offsets_valid = False
        offset += 1 + _FIXED_PAYLOAD
    layout = tuple(specs)
    if strategy is Strategy.DGCW:
        decoder = _build_dgcw_decoder(layout)
    else:
        decoder = lambda data, pos, _layout=layout: _decode_fields_generic(
            _layout, data, pos
        )
    return WrapperPlan(
        fingerprint=SchemaFingerprint(digest),
        strategy=strategy,
        field_layout=layout,
        plan_size_bytes=len(data),
        compiled_at=time.time(),
        _decode=decoder,
    )


class PlanRepository:
    """Fingerprint-keyed plan cache backed by one file per plan.

    Lookups and inserts are safe across threads; when two callers race to
    add the same plan, one write wins and both observe the stored plan.
    Existing plan files are indexed at construction, so a repository
    reopened on the same store directory serves cache hits without
    recompiling (SPSW's per-schema layouts are runtime state, not files,
    so those re-derive after a restart; the single generic file persists).
    """

    def __init__(self, store_dir: str | os.PathLike):
        self._root = Path(store_dir) / "plans"
        self._lock = threading.Lock()
        self._plans: dict[tuple[Strategy, str], WrapperPlan] = {}
        try:
            for strategy in Strategy:
                (self._root / strategy.tag).mkdir(parents=True, exist_ok=True)
            self._scan()
        except OSError as exc:
            raise RepositoryIO(f"cannot open plan store: {exc}") from exc

    def _scan(self) -> None:
        for strategy in Strategy:
            for path in sorted((self._root / strategy.tag).glob("*.plan")):
                digest = path.stem
                if strategy is Strategy.SPSW and digest == GENERIC_SCHEMA_DIGEST:
                    # storage witness for the shared generic plan; carries
                    # no layout, so it is not a servable cache entry
                    continue
                try:
                    plan = load_plan(path.read_bytes(), digest)
                except OSError as exc:
                    raise RepositoryIO(f"cannot read {path}: {exc}") from exc
                self._plans[(strategy, digest)] = plan

    def _path_for(self, strategy: Strategy, digest: str) -> Path:
        if strategy is Strategy.SPSW:
            digest = GENERIC_SCHEMA_DIGEST
        return self._root / strategy.tag / f"{digest}.plan"

    def _persist(self, plan: WrapperPlan) -> None:
        path = self._path_for(plan.strategy, plan.fingerprint.digest)
        if plan.strategy is Strategy.SPSW and path.exists():
            return
        tmp = path.with_suffix(".tmp")
        try:
            tmp.write_bytes(serialize_plan(plan))
            os.replace(tmp, path)
        except OSError as exc:
            raise RepositoryIO(f"cannot write {path}: {exc}") from exc

    def lookup_or_add(
        self,
        fp: SchemaFingerprint,
        strategy: Strategy,
        compile_fn: Callable[[], WrapperPlan],
    ) -> tuple[WrapperPlan, bool]:
        """Return (plan, cache_hit).  compile_fn runs only on a miss."""
        key = (strategy, fp.digest)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                return plan, True
            plan = compile_fn()
            self._persist(plan)
            self._plans[key] = plan
            return plan, False

    def get(self, strategy: Strategy, digest: str) -> WrapperPlan:
        with self._lock:
            plan = self._plans.get((strategy, digest))
        if plan is None:
            raise UnknownWrapper(f"no plan for {strategy.tag}_{digest}")
        return plan

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


def instantiate(
    wcr: WrapperConnectionRequest, repository: PlanRepository
) -> "WrapperInstance":
    """Resolve a connection request against the repository and build the
    wrapper instance (in CREATED state; the caller drives the lifecycle).

    Raises:
        UnknownWrapper: wrapper_name does not resolve to a stored plan.
        MissingInitParam: init_params lacks data_port or hub_id.
    """
    for param in ("data_port", "hub_id"):
        if param not in wcr.init_params:
            raise MissingInitParam(f"init_params missing {param!r}")
    strategy, digest = parse_wrapper_name(wcr.wrapper_name)
    plan = repository.get(strategy, digest)
    return WrapperInstance(plan=plan, hub_id=str(wcr.init_params["hub_id"]))


# --- lifecycle --------------------------------------------------------------

class LifecycleState(Enum):
    CREATED = "created"
    INITIALIZED = "initialized"
    RUNNING = "running"
    STOPPED = "stopped"
    DISPOSED = "disposed"


class WrapperInstance:
    """One hub's decoder, driven through the five-method lifecycle by a
    single consumer.  Not thread-safe; the owner serializes all calls."""

    def __init__(self, plan: WrapperPlan, hub_id: str):
        self.plan = plan
        self.hub_id = hub_id
        self.state = LifecycleState.CREATED
        self.records_decoded = 0
        self.last_sequence = -1
        self.duplicates_dropped = 0
        self.sequence_regressions = 0
        self._recent: deque[int] = deque()
        self._recent_set: set[int] = set()

    def _illegal(self, event: str):
        raise IllegalTransition(self.state, event)

    def initialize(self) -> None:
        if self.state is not LifecycleState.CREATED:
            self._illegal("initialize")
        self.state = LifecycleState.INITIALIZED

    def start(self) -> None:
        if self.state not in (LifecycleState.INITIALIZED, LifecycleState.STOPPED):
            self._illegal("start")
        self.state = LifecycleState.RUNNING

    def stop(self) -> None:
        if self.state is not LifecycleState.RUNNING:
            self._illegal("stop")
        self.state = LifecycleState.STOPPED

    def dispose(self) -> None:
        if self.state is not LifecycleState.STOPPED:
            self._illegal("dispose")
        self.state = LifecycleState.DISPOSED

    def on_stream_element(self, frame: bytes) -> Optional[StreamRecord]:
        """Decode one frame.  Returns the record, or None when the frame is
        a duplicate of a recently accepted sequence number (dropped and
        counted).  A sequence number older than the reordering window
        raises SequenceRegression."""
        if self.state is not LifecycleState.RUNNING:
            self._illegal("on_stream_element")
        record = decode_record(self.plan, frame, self.hub_id)
        seq = record.sequence
        if seq in self._recent_set:
            self.duplicates_dropped += 1
            return None
        if self.last_sequence >= 0 and seq <= self.last_sequence - DEDUP_WINDOW:
            self.sequence_regressions += 1
            raise SequenceRegression(
                f"sequence {seq} behind window floor "
                f"{self.last_sequence - DEDUP_WINDOW + 1}"
            )
        self._recent.append(seq)
        self._recent_set.add(seq)
        if len(self._recent) > DEDUP_WINDOW:
            self._recent_set.discard(self._recent.popleft())
        if seq > self.last_sequence:
            self.last_sequence = seq
        self.records_decoded += 1
        return record
