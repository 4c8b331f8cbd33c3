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
  fixed-width schema and every presence tag is 0x01) and, for the general
  case, a table of (field name, payload unpacker) pairs walked in one loop
  that never consults the schema again.  Like SPSW, it rejects a presence
  tag other than 0x00 or 0x01 with TypeTagMismatch.

Both strategies must decode every valid frame identically; the generic
path doubles as the oracle for the specialized one in tests.

Ingest does not decode.  Every plan, whichever its strategy, carries one
validator built from a table of per-field widths (a fixed-width payload,
or a length-prefixed STRING): it checks the header, the presence tags
(0x00 or 0x01), string lengths and UTF-8, and that no byte trails the
last field, without building a value.  A fixed-width schema's frame with every field
present passes on its length and presence tags alone.  A frame the check
rejects goes through the SPSW walk, so it fails with exactly SPSW's error
and message, and both strategies accept exactly the frames SPSW decodes.
Records are built by decode_record when something reads them.

Plans are cached by schema fingerprint in a PlanRepository and persisted
one file per plan under ``<store>/plans/<strategy>/<digest>.plan`` with a
self-describing header (magic ``MSHP``, format version, strategy byte,
field table).  The SPSW plan persists as a single generic file keyed by
the empty-schema digest regardless of how many schemas use it; the field
layout each SPSW registration needs at runtime lives on the in-memory
plan object and on the wrapper instance, not on disk.  A stored plan is
served only if its strategy byte matches its directory and its field
table fingerprints to its file name; the store deletes any other plan
file, and any ``.tmp`` file a write left behind, when it opens.

A WrapperInstance drives one hub's stream through the five-method
lifecycle: initialize, start, stop, dispose, and on_stream_element, with
the state machine

    CREATED -> INITIALIZED -> RUNNING <-> STOPPED -> DISPOSED

where initialize is accepted at most once, records are accepted only in
RUNNING, and DISPOSED is absorbing.
"""

from __future__ import annotations

import logging
import os
import struct
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .errors import (
    FrameTooShort,
    HubStreamError,
    IllegalTransition,
    InvalidText,
    MalformedDocument,
    RepositoryIO,
    SequenceRegression,
    TrailingBytes,
    TypeTagMismatch,
)
from .sdd import (
    GENERIC_SCHEMA_DIGEST,
    MicroSDD,
    SchemaFingerprint,
    ValueType,
    fingerprint,
    schema_fingerprint,
)
from .wire import FRAME_HEADER, F64, I64, U32, U64, pack_field_table, unpack_field_table

__all__ = [
    "Strategy",
    "FieldSpec",
    "WrapperPlan",
    "StreamRecord",
    "LifecycleState",
    "WrapperInstance",
    "PlanRepository",
    "compile_plan",
    "serialize_plan",
    "load_plan",
    "decode_record",
    "wrapper_name_for",
    "PLAN_MAGIC",
    "DEDUP_WINDOW",
]

_log = logging.getLogger(__name__)

PLAN_MAGIC = b"MSHP"
PLAN_FORMAT_VERSION = 1

# Reordering tolerance.  A sequence above last_sequence is accepted, shifts
# the window and becomes newest; one within DEDUP_WINDOW of last_sequence is
# accepted once, and later copies are counted as duplicates; anything lower
# raises SequenceRegression.  Bit k of a wrapper's _seen is set when sequence
# last_sequence - k was accepted.
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


class FieldSpec(NamedTuple):
    """One field of a plan's layout: the (name, type) pair that ASSIGN, the
    virtual sensor definition and the wire field table carry."""

    name: str
    value_type: ValueType


class StreamRecord(NamedTuple):
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
    _decode: Callable = field(compare=False, repr=False)
    _validate: Callable = field(compare=False, repr=False)

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.field_layout)


def wrapper_name_for(strategy: Strategy, fingerprint: SchemaFingerprint) -> str:
    return f"{strategy.tag}_{fingerprint.digest}"


# --- decoding -------------------------------------------------------------

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


_UNPACKER = {  # None: a STRING payload is length-prefixed
    ValueType.INT: I64.unpack_from,
    ValueType.DOUBLE: F64.unpack_from,
    ValueType.STRING: None,
}


def _build_dgcw_decoder(layout: tuple[FieldSpec, ...]) -> Callable:
    """Precompute everything the generic path looks up per record: a table
    of (name, payload unpacker) walked without consulting the schema, and
    for a fixed-width schema one struct covering a frame with every field
    present (taken when the frame has that length and every presence tag
    is 0x01)."""
    table = tuple((name, _UNPACKER[value_type]) for name, value_type in layout)
    unpack_length = U32.unpack_from

    def walk(data: bytes, pos: int) -> tuple:
        out = []
        end = len(data)
        for name, unpack in table:
            if pos >= end:
                raise FrameTooShort(f"frame ends before field {name!r}")
            presence = data[pos]
            pos += 1
            if presence != 0x01:
                if presence:
                    raise TypeTagMismatch(f"presence tag {presence:#04x} at field {name!r}")
                out.append((name, None))
                continue
            try:
                if unpack is not None:
                    (value,) = unpack(data, pos)
                    pos += 8
                else:
                    (str_len,) = unpack_length(data, pos)
                    pos += 4
                    if pos + str_len > end:
                        raise FrameTooShort(f"frame ends inside field {name!r}")
                    value = data[pos : pos + str_len].decode("utf-8")
                    pos += str_len
            except struct.error as exc:
                raise FrameTooShort(f"frame ends inside field {name!r}") from exc
            except UnicodeDecodeError as exc:
                raise InvalidText(f"field {name!r} is not valid UTF-8") from exc
            out.append((name, value))
        if pos != end:
            raise TrailingBytes(f"{end - pos} bytes beyond the last field")
        return tuple(out)

    if any(unpack is None for _, unpack in table):
        return walk

    names = tuple(name for name, _ in table)
    codes = "".join("Bq" if vt is ValueType.INT else "Bd" for _, vt in layout)
    all_present = struct.Struct(">" + codes)
    nominal = all_present.size
    unpack = all_present.unpack_from
    tags = b"\x01" * len(names)

    def decode(data: bytes, pos: int) -> tuple:
        if len(data) - pos == nominal and data[pos::9] == tags:
            flat = unpack(data, pos)
            return tuple(zip(names, flat[1::2]))
        return walk(data, pos)

    return decode


def _require_header(frame: bytes) -> None:
    if len(frame) < FRAME_HEADER.size:
        raise FrameTooShort(f"frame body {len(frame)}B, header needs 16B")


def _build_validator(layout: tuple[FieldSpec, ...]) -> Callable:
    """Check a frame body without building its values; returns its
    sequence number.  Walks a table of the bytes each present field takes
    (9: tag and payload, or 0 for a length-prefixed STRING); a frame of a
    fixed-width schema with every field present is recognised by its
    length and presence tags alone.  A frame that fails the check is
    handed to the SPSW walk, which raises the error decode_record would."""
    header = FRAME_HEADER.size
    widths = tuple(0 if value_type is ValueType.STRING else 9 for _, value_type in layout)
    nominal = header + sum(widths) if all(widths) else -1
    all_present = b"\x01" * len(widths)
    unpack_length = U32.unpack_from
    unpack_sequence = U64.unpack_from

    def walk(frame) -> bool:
        pos = header
        try:
            for width in widths:
                tag = frame[pos]
                if tag == 0x01:
                    if width:
                        pos += width
                        continue
                    (str_len,) = unpack_length(frame, pos + 1)
                    pos += 5
                    text = frame[pos : pos + str_len]
                    if not text.isascii():
                        text.decode("utf-8")
                    pos += str_len
                elif tag:
                    return False
                else:
                    pos += 1
        except (IndexError, struct.error, UnicodeDecodeError):
            return False  # ran past the end, or not UTF-8
        return pos == len(frame)

    def validate(frame) -> int:
        if not (len(frame) == nominal and frame[header::9] == all_present) and not walk(frame):
            _require_header(frame)
            _decode_fields_generic(layout, frame, header)
        return unpack_sequence(frame)[0]

    return validate


def decode_record(plan: WrapperPlan, frame: bytes, hub_id: str = "") -> StreamRecord:
    """Decode one frame body (sequence + timestamp + field region) into a
    typed record.  The caller strips the length prefix.

    Raises:
        FrameTooShort: frame truncated inside the header or a field.
        TypeTagMismatch: a presence byte is neither 0x00 nor 0x01.
        TrailingBytes: bytes remain after the last declared field.
        InvalidText: a STRING field is not valid UTF-8.
    """
    _require_header(frame)
    sequence, timestamp_ms = FRAME_HEADER.unpack_from(frame)
    values = plan._decode(frame, FRAME_HEADER.size)
    return StreamRecord(hub_id, sequence, timestamp_ms, values)


# --- compilation and persistence -------------------------------------------

def _plan_bytes(strategy: Strategy, layout: tuple[FieldSpec, ...]) -> bytes:
    table = pack_field_table(layout if strategy is Strategy.DGCW else ())
    return PLAN_MAGIC + bytes([PLAN_FORMAT_VERSION, strategy.code]) + table


def _make_plan(
    fp: SchemaFingerprint, strategy: Strategy, layout: tuple[FieldSpec, ...], size: int
) -> WrapperPlan:
    if strategy is Strategy.DGCW:
        decoder = _build_dgcw_decoder(layout)
    else:
        decoder = partial(_decode_fields_generic, layout)
    return WrapperPlan(fp, strategy, layout, size, decoder, _build_validator(layout))


def compile_plan(doc: MicroSDD, strategy: Strategy) -> WrapperPlan:
    """Build a decode plan for the document's schema.

    DGCW precomputes a per-field unpacker table and the all-present struct
    for fixed-width schemas; SPSW parameterizes the shared generic routine
    with the field list and does all interpretation per record.
    """
    layout = tuple(FieldSpec(s.name, s.value_type) for s in doc.sensors)
    size = len(_plan_bytes(strategy, layout))
    return _make_plan(fingerprint(doc), strategy, layout, size)


def serialize_plan(plan: WrapperPlan) -> bytes:
    """Byte form written to the plan store.  Deterministic: independent of
    compile time and, for SPSW, of the schema (the generic plan is one
    constant byte string)."""
    return _plan_bytes(plan.strategy, plan.field_layout)


def load_plan(data: bytes, digest: str) -> WrapperPlan:
    """Rebuild a plan from its file bytes.  The digest comes from the file
    name; the decoder is rebuilt from the field table."""
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
    layout = tuple(FieldSpec(name, value_type) for name, value_type in fields)
    return _make_plan(SchemaFingerprint(digest), strategy, layout, len(data))


class PlanRepository:
    """Fingerprint-keyed plan cache backed by one file per plan.

    Existing plan files are indexed at construction, so a repository
    reopened on the same store directory serves cache hits without
    recompiling (SPSW's per-schema layouts are runtime state, not files,
    so those re-derive after a restart; the single generic file persists).
    A file that does not load, or whose strategy byte or field table does
    not match its path, is deleted with a warning; plans derive from
    schemas, so the next lookup compiles that plan and rewrites the file.
    """

    def __init__(self, store_dir: str | os.PathLike):
        self._root = Path(store_dir) / "plans"
        self._plans: dict[tuple[Strategy, str], WrapperPlan] = {}
        try:
            for strategy in Strategy:
                (self._root / strategy.tag).mkdir(parents=True, exist_ok=True)
            self._scan()
        except OSError as exc:
            raise RepositoryIO(f"cannot open plan store: {exc}") from exc

    def _scan(self) -> None:
        for strategy in Strategy:
            folder = self._root / strategy.tag
            for tmp in folder.glob("*.tmp"):  # a write that never reached its replace
                tmp.unlink()
            for path in sorted(folder.glob("*.plan")):
                try:
                    plan = load_plan(path.read_bytes(), path.stem)
                except HubStreamError:
                    plan = None
                if plan is None or plan.strategy is not strategy or (
                    schema_fingerprint(plan.field_layout) != plan.fingerprint
                ):
                    _log.warning("plan file %s is damaged or does not match its path; deleted", path)
                    path.unlink()
                elif strategy is Strategy.DGCW:
                    # SPSW keeps one generic file, a storage witness with no
                    # layout, so it is never a servable cache entry
                    self._plans[(strategy, path.stem)] = plan

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
        plan = self._plans.get(key)
        if plan is not None:
            return plan, True
        plan = compile_fn()
        self._persist(plan)
        self._plans[key] = plan
        return plan, False


def instantiate(plan: WrapperPlan, hub_id: str) -> "WrapperInstance":
    """Build the hub's wrapper instance on its plan, in CREATED state; the
    caller drives the lifecycle."""
    return WrapperInstance(plan, hub_id)


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
        self.newest: Optional[bytes] = None  # the accepted body of last_sequence
        self.duplicates_dropped = 0
        self.sequence_regressions = 0
        self._seen = 0  # the dedup window, see DEDUP_WINDOW

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

    def on_stream_element(self, frame: bytes) -> Optional[bytes]:
        """Validate one frame body and deduplicate it by sequence number, by
        the rule stated at DEDUP_WINDOW; no record is built.  Returns the
        frame body when it is accepted (records_decoded counts it), or None
        when it is a duplicate (dropped and counted).  A frame SPSW would not
        decode raises SPSW's error; a sequence number below the window
        raises SequenceRegression."""
        if self.state is not LifecycleState.RUNNING:
            self._illegal("on_stream_element")
        seq = self.plan._validate(frame)
        ahead = seq - self.last_sequence
        if ahead > 0:
            kept = self._seen << ahead if ahead < DEDUP_WINDOW else 0  # a long jump keeps none
            self._seen = kept & ((1 << DEDUP_WINDOW) - 1) | 1
            self.last_sequence = seq
            self.newest = frame
        elif ahead <= -DEDUP_WINDOW:
            self.sequence_regressions += 1
            floor = self.last_sequence - DEDUP_WINDOW + 1
            raise SequenceRegression(f"sequence {seq} behind window floor {floor}")
        elif self._seen >> -ahead & 1:
            self.duplicates_dropped += 1
            return None
        else:
            self._seen |= 1 << -ahead
        self.records_decoded += 1
        return frame
