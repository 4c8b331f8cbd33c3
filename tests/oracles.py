"""Independent reference implementations the tests check the package against.

Everything here is written straight from the wire-format documentation
using bare struct calls, on purpose: these functions must not share code
with the package, or the tests would only prove the code agrees with
itself.
"""

import random
import string
import struct

from hubstream.errors import TypeMismatch
from hubstream.sdd import ValueType

# --- reference frame encoder ------------------------------------------------

def reference_encode_fields(schema, row) -> bytes:
    """Encode one value row (schema = [(name, ValueType)], row = list of
    values or None) per the data-channel field layout."""
    out = bytearray()
    for (_, vtype), value in zip(schema, row):
        if value is None:
            out.append(0x00)
            continue
        out.append(0x01)
        if vtype is ValueType.INT:
            out += struct.pack(">q", value)
        elif vtype is ValueType.DOUBLE:
            out += struct.pack(">d", value)
        else:
            encoded = value.encode("utf-8")
            out += struct.pack(">I", len(encoded)) + encoded
    return bytes(out)


def reference_frame(schema, row, sequence, timestamp_ms) -> bytes:
    """Full frame body: sequence + timestamp + fields (no length prefix)."""
    return struct.pack(">QQ", sequence, timestamp_ms) + reference_encode_fields(
        schema, row
    )


# --- reference lifecycle automaton -------------------------------------------

# (state, event) -> next state; any pair not listed is rejected.
LIFECYCLE_TABLE = {
    ("created", "initialize"): "initialized",
    ("initialized", "start"): "running",
    ("running", "stop"): "stopped",
    ("running", "on_stream_element"): "running",
    ("stopped", "start"): "running",
    ("stopped", "dispose"): "disposed",
}

LIFECYCLE_EVENTS = ("initialize", "start", "stop", "dispose", "on_stream_element")


def lifecycle_oracle(events, state="created"):
    """Run events through the reference table.  Returns a list of
    (accepted: bool, state_after: str) per event."""
    trace = []
    for event in events:
        nxt = LIFECYCLE_TABLE.get((state, event))
        if nxt is None:
            trace.append((False, state))
        else:
            state = nxt
            trace.append((True, state))
    return trace


# --- seeded random generators -------------------------------------------------

_NAME_ALPHABET = string.ascii_lowercase + string.digits + "_"


def random_name(rng: random.Random, min_len=1, max_len=12) -> str:
    length = rng.randint(min_len, max_len)
    head = rng.choice(string.ascii_lowercase)
    return head + "".join(rng.choice(_NAME_ALPHABET) for _ in range(length - 1))


def random_schema(rng: random.Random, max_fields=32, min_fields=1):
    count = rng.randint(min_fields, max_fields)
    names = set()
    while len(names) < count:
        names.add(random_name(rng))
    return [(name, rng.choice(list(ValueType))) for name in sorted(names)]


def random_value(rng: random.Random, vtype: ValueType):
    if vtype is ValueType.INT:
        return rng.randint(-(2**63), 2**63 - 1)
    if vtype is ValueType.DOUBLE:
        # mix magnitudes; avoid NaN (breaks equality checks)
        return rng.choice(
            [rng.uniform(-1e6, 1e6), rng.uniform(-1e-6, 1e-6), float(rng.randint(-5, 5))]
        )
    length = rng.randint(0, 20)
    return "".join(rng.choice(string.printable) for _ in range(length))


def random_row(rng: random.Random, schema, null_rate=0.15):
    return [
        None if rng.random() < null_rate else random_value(rng, vtype)
        for _, vtype in schema
    ]


# --- reference hub encoder and filters ---------------------------------------
# Field-by-field copies of the first StreamEncoder.encode and FilterEngine
# (before both were compiled per layout), kept as the parity oracles.

_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")
_HEADER = struct.Struct(">QQ")
REFERENCE_KEYFRAME_EVERY = 100


def reference_stream_encode(layout, sequence, timestamp_ms, row) -> bytes:
    """One full frame, length prefix included, for a row dict."""
    parts = []
    for name, vtype in layout:
        value = row.get(name)
        if value is None:
            parts.append(b"\x00")
            continue
        if vtype is ValueType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeMismatch(f"field {name!r} wants int, got {type(value).__name__}")
            parts.append(b"\x01" + _I64.pack(value))
        elif vtype is ValueType.DOUBLE:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeMismatch(f"field {name!r} wants double, got {type(value).__name__}")
            parts.append(b"\x01" + _F64.pack(float(value)))
        else:
            if not isinstance(value, str):
                raise TypeMismatch(f"field {name!r} wants string, got {type(value).__name__}")
            encoded = value.encode("utf-8")
            parts.append(b"\x01" + _U32.pack(len(encoded)) + encoded)
    body = _HEADER.pack(sequence, timestamp_ms) + b"".join(parts)
    return _U32.pack(len(body)) + body


class ReferenceFilter:
    """mode is "none", "delta" or "avg"; process(tick, row) as FilterEngine."""

    def __init__(self, mode, layout, threshold=0.0, window=1):
        self.mode = mode
        self.threshold = threshold
        self.window = window
        self.layout = tuple(layout)
        self.last_sent = {}
        self.acc = {name: [] for name, _ in self.layout}
        self.acc_ticks = 0

    def process(self, tick, row):
        if self.mode == "none":
            return row
        if self.mode == "delta":
            return self._delta(tick, row)
        return self._window_avg(row)

    def _delta(self, tick, row):
        keyframe = tick % REFERENCE_KEYFRAME_EVERY == 0
        out = {}
        anything_sent = False
        for name, vtype in self.layout:
            value = row.get(name)
            if value is None:
                out[name] = None
                continue
            if keyframe:
                out[name] = value
                self.last_sent[name] = value
                anything_sent = True
                continue
            last = self.last_sent.get(name)
            if vtype is ValueType.STRING:
                changed = value != last
            else:
                changed = last is None or abs(value - last) > self.threshold
            if changed:
                out[name] = value
                self.last_sent[name] = value
                anything_sent = True
            else:
                out[name] = None
        if not anything_sent:
            return None
        return out

    def _window_avg(self, row):
        for name, _ in self.layout:
            value = row.get(name)
            if value is not None:
                self.acc[name].append(value)
        self.acc_ticks += 1
        if self.acc_ticks < self.window:
            return None
        out = {}
        for name, vtype in self.layout:
            got = self.acc[name]
            if not got:
                out[name] = None
            elif vtype is ValueType.STRING:
                out[name] = got[-1]
            elif vtype is ValueType.INT:
                out[name] = round(sum(got) / len(got))
            else:
                out[name] = sum(got) / len(got)
        self.acc = {name: [] for name, _ in self.layout}
        self.acc_ticks = 0
        return out
