"""Deterministic simulated sensor plugins.

These stand in for physical sensors in tests and benchmarks.  Every kind
produces an identical sample sequence for identical (kind, seed, params),
so runs are replayable.  The flaky wrapper makes a plugin report absence
during declared half-open time windows, anchored at its first sample, so
grace-period behavior can be exercised on a simulated clock without any
sleep-based choreography.

Plugins are described in a plain-text manifest, one per line::

    const  name=temp     type=double period_ms=100 mean=20.0 unit=celsius
    sine   name=hum      type=double period_ms=200 mean=50 amplitude=10
    walk   name=pressure type=double period_ms=100 mean=1013 step=0.5 seed=7
    ticker name=status   type=string period_ms=1000 prefix=ok
    flaky  name=light    type=double period_ms=100 inner=const mean=300 dropout=5000-40000

Blank lines and ``#`` comments are ignored.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from . import wire
from .errors import BadSpec
from .hub import Clock, PluginDescriptor, RealClock, SensorPlugin
from .sdd import IDENTIFIER_RE, SensorDescriptor, ValueType

__all__ = [
    "SimKind",
    "SimSpec",
    "make_sim_plugin",
    "parse_manifest",
    "parse_manifest_line",
    "manifest_line",
    "serialize_plugin_bundle",
    "BUNDLE_MAGIC",
]

BUNDLE_MAGIC = b"MSHB"
BUNDLE_VERSION = 1


class SimKind(Enum):
    CONST = "const"
    SINE = "sine"
    RANDOM_WALK = "walk"
    STRING_TICKER = "ticker"
    FLAKY = "flaky"

    @classmethod
    def from_keyword(cls, word: str) -> "SimKind":
        for kind in cls:
            if kind.value == word:
                return kind
        raise BadSpec(f"unknown plugin kind {word!r}")


_NUMERIC_KINDS = {SimKind.CONST, SimKind.SINE, SimKind.RANDOM_WALK}


@dataclass(frozen=True)
class SimSpec:
    """Everything needed to build one simulated plugin."""

    kind: SimKind
    name: str
    value_type: ValueType
    period_ms: int
    seed: int = 0
    unit: Optional[str] = None
    mean: float = 0.0
    amplitude: float = 1.0
    step: float = 0.1
    prefix: str = "tick"
    inner: Optional[SimKind] = None
    dropout_windows: tuple[tuple[int, int], ...] = field(default_factory=tuple)


def _validate(spec: SimSpec) -> None:
    if not IDENTIFIER_RE.fullmatch(spec.name):
        raise BadSpec(f"bad sensor name {spec.name!r}")
    if spec.period_ms <= 0:
        raise BadSpec("period_ms must be positive")
    effective_kind = spec.inner if spec.kind is SimKind.FLAKY else spec.kind
    if spec.kind is SimKind.FLAKY:
        if effective_kind is None:
            raise BadSpec("flaky plugin needs an inner kind")
        if effective_kind is SimKind.FLAKY:
            raise BadSpec("flaky plugins do not nest")
        for start, end in spec.dropout_windows:
            if start < 0 or end <= start:
                raise BadSpec(f"bad dropout window [{start}, {end})")
    if effective_kind is SimKind.STRING_TICKER:
        if spec.value_type is not ValueType.STRING:
            raise BadSpec("ticker plugins produce strings")
    elif effective_kind in _NUMERIC_KINDS:
        if spec.value_type is ValueType.STRING:
            raise BadSpec(f"{effective_kind.value} plugins produce numbers")
    if effective_kind is SimKind.SINE and spec.amplitude < 0:
        raise BadSpec("amplitude must be >= 0")


class _SimPluginBase(SensorPlugin):
    def __init__(self, spec: SimSpec):
        self.spec = spec
        self.sample_count = 0
        self._coerce = round if spec.value_type is ValueType.INT else float

    def describe(self) -> PluginDescriptor:
        sensor = SensorDescriptor(
            name=self.spec.name,
            value_type=self.spec.value_type,
            sample_period_ms=self.spec.period_ms,
            unit=self.spec.unit,
        )
        return PluginDescriptor(plugin_id=self.spec.name, sensor=sensor, transport_label="sim")


class _ConstPlugin(_SimPluginBase):
    def __init__(self, spec: SimSpec):
        super().__init__(spec)
        self._value = self._coerce(spec.mean)

    def sample(self):
        self.sample_count += 1
        return self._value


class _SinePlugin(_SimPluginBase):
    def __init__(self, spec: SimSpec):
        super().__init__(spec)
        self._wave = (spec.mean, spec.amplitude, spec.step)

    def sample(self):
        k = self.sample_count
        self.sample_count += 1
        mean, amplitude, step = self._wave
        return self._coerce(mean + amplitude * math.sin(k * step))


class _WalkPlugin(_SimPluginBase):
    def __init__(self, spec: SimSpec):
        super().__init__(spec)
        self._random = random.Random(spec.seed).random
        # Random.uniform(-step, step) is -step + (step - -step) * random()
        self._lo = -spec.step
        self._span = spec.step - -spec.step
        self._position = spec.mean

    def sample(self):
        self.sample_count += 1
        position = self._position
        self._position = position + (self._lo + self._span * self._random())
        return self._coerce(position)


class _TickerPlugin(_SimPluginBase):
    def sample(self):
        k = self.sample_count
        self.sample_count += 1
        return f"{self.spec.prefix}-{k}"


class _FlakyPlugin(SensorPlugin):
    """Delegates to an inner plugin but reports absence inside dropout
    windows.  Windows are half-open [start_ms, end_ms) offsets from the
    first sample call.  The inner sequence still advances during dropouts
    so post-dropout values do not depend on dropout length."""

    def __init__(self, spec: SimSpec, inner: SensorPlugin, clock: Clock):
        self.spec = spec
        self._inner = inner
        self._clock = clock
        self._anchor_ms: Optional[int] = None

    def describe(self) -> PluginDescriptor:
        return self._inner.describe()

    def sample(self):
        now = self._clock.now_ms()
        if self._anchor_ms is None:
            self._anchor_ms = now
        offset = now - self._anchor_ms
        value = self._inner.sample()
        for start, end in self.spec.dropout_windows:
            if start <= offset < end:
                return None
        return value

    def shutdown(self) -> None:
        self._inner.shutdown()


def make_sim_plugin(spec: SimSpec, clock: Optional[Clock] = None) -> SensorPlugin:
    """Build a plugin from its spec.  The clock only matters for flaky
    plugins, whose dropout windows are measured against it."""
    _validate(spec)
    if spec.kind is SimKind.FLAKY:
        inner_spec = replace(spec, kind=spec.inner, inner=None, dropout_windows=())
        inner = make_sim_plugin(inner_spec)
        return _FlakyPlugin(spec, inner, clock or RealClock())
    builder = {
        SimKind.CONST: _ConstPlugin,
        SimKind.SINE: _SinePlugin,
        SimKind.RANDOM_WALK: _WalkPlugin,
        SimKind.STRING_TICKER: _TickerPlugin,
    }[spec.kind]
    return builder(spec)


# --- manifest -----------------------------------------------------------------------

_DEFAULT_TYPE = {
    SimKind.CONST: ValueType.DOUBLE,
    SimKind.SINE: ValueType.DOUBLE,
    SimKind.RANDOM_WALK: ValueType.DOUBLE,
    SimKind.STRING_TICKER: ValueType.STRING,
}

_INT_KEYS = {"period_ms", "seed"}
_FLOAT_KEYS = {"mean", "amplitude", "step"}
_STR_KEYS = {"name", "unit", "prefix"}


def _parse_dropouts(text: str) -> tuple[tuple[int, int], ...]:
    windows = []
    for part in text.split(","):
        start_text, sep, end_text = part.partition("-")
        if not sep:
            raise BadSpec(f"dropout window {part!r} is not START-END")
        try:
            windows.append((int(start_text), int(end_text)))
        except ValueError as exc:
            raise BadSpec(f"dropout window {part!r}: {exc}") from exc
    return tuple(windows)


def parse_manifest_line(line: str) -> SimSpec:
    tokens = line.split()
    kind = SimKind.from_keyword(tokens[0])
    kwargs: dict = {"kind": kind}
    value_type: Optional[ValueType] = None
    for token in tokens[1:]:
        key, sep, raw = token.partition("=")
        if not sep:
            raise BadSpec(f"expected key=value, got {token!r}")
        if key == "type":
            try:
                value_type = ValueType.from_keyword(raw)
            except Exception as exc:
                raise BadSpec(f"bad type {raw!r}") from exc
        elif key == "inner":
            kwargs["inner"] = SimKind.from_keyword(raw)
        elif key == "dropout":
            kwargs["dropout_windows"] = _parse_dropouts(raw)
        elif key in _INT_KEYS:
            try:
                kwargs[key] = int(raw)
            except ValueError as exc:
                raise BadSpec(f"{key} wants an integer, got {raw!r}") from exc
        elif key in _FLOAT_KEYS:
            try:
                kwargs[key] = float(raw)
            except ValueError as exc:
                raise BadSpec(f"{key} wants a number, got {raw!r}") from exc
        elif key in _STR_KEYS:
            kwargs[key] = raw
        else:
            raise BadSpec(f"unknown manifest key {key!r}")
    if "name" not in kwargs:
        raise BadSpec("manifest line needs name=...")
    if "period_ms" not in kwargs:
        raise BadSpec("manifest line needs period_ms=...")
    if value_type is None:
        default_for = kwargs.get("inner", kind)
        value_type = _DEFAULT_TYPE.get(default_for)
        if value_type is None:
            raise BadSpec("cannot infer type; add type=...")
    spec = SimSpec(value_type=value_type, **kwargs)
    _validate(spec)
    return spec


def parse_manifest(text: str) -> list[SimSpec]:
    """Parse a manifest document: one plugin per line, blank lines and
    # comments skipped.  Duplicate names rejected."""
    specs = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            spec = parse_manifest_line(line)
        except BadSpec as exc:
            raise BadSpec(f"manifest line {lineno}: {exc}") from exc
        if spec.name in seen:
            raise BadSpec(f"manifest line {lineno}: duplicate plugin name {spec.name!r}")
        seen.add(spec.name)
        specs.append(spec)
    return specs


def manifest_line(spec: SimSpec) -> str:
    """The manifest text form of a spec (inverse of parse_manifest_line)."""
    parts = [spec.kind.value, f"name={spec.name}", f"type={spec.value_type.value}",
             f"period_ms={spec.period_ms}"]
    if spec.seed:
        parts.append(f"seed={spec.seed}")
    if spec.unit is not None:
        parts.append(f"unit={spec.unit}")
    if spec.kind is SimKind.FLAKY:
        parts.append(f"inner={spec.inner.value}")
        if spec.dropout_windows:
            parts.append("dropout=" + ",".join(f"{a}-{b}" for a, b in spec.dropout_windows))
    effective = spec.inner if spec.kind is SimKind.FLAKY else spec.kind
    if effective in _NUMERIC_KINDS:
        parts.append(f"mean={spec.mean}")
    if effective is SimKind.SINE:
        parts.append(f"amplitude={spec.amplitude}")
    if effective in (SimKind.SINE, SimKind.RANDOM_WALK):
        parts.append(f"step={spec.step}")
    if effective is SimKind.STRING_TICKER:
        parts.append(f"prefix={spec.prefix}")
    return " ".join(parts)


# --- bundle serialization ---------------------------------------------------------

_KIND_ENTRY = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_STATE = struct.Struct(">dQ")  # current position/phase, samples taken


def serialize_plugin_bundle(specs: list[SimSpec]) -> bytes:
    """Pack plugins into one storable library blob.

    The bundle pays a fixed header plus one kind-table entry per distinct
    kind; each plugin then contributes a compact fixed-shape entry.  That
    makes the size of an n-plugin bundle affine in n, and packing several
    plugins into one library never costs more than the same plugins in
    separate single-plugin bundles (shared header, shared kind table).
    """
    kinds: list[SimKind] = []
    for spec in specs:
        if spec.kind not in kinds:
            kinds.append(spec.kind)
    out = [BUNDLE_MAGIC, bytes([BUNDLE_VERSION]), _U16.pack(len(kinds))]
    for kind in kinds:
        word = kind.value.encode("ascii")
        out.append(bytes([len(word)]) + word)
    out.append(_U16.pack(len(specs)))
    for spec in specs:
        name = spec.name.encode("ascii")
        entry = [
            _KIND_ENTRY.pack(kinds.index(spec.kind)),
            _U16.pack(len(name)),
            name,
            bytes([wire.TYPE_CODE[spec.value_type]]),
            _U32.pack(spec.period_ms),
            struct.pack(">q", spec.seed),
            struct.pack(">ddd", spec.mean, spec.amplitude, spec.step),
            _U16.pack(len(spec.dropout_windows)),
        ]
        for start, end in spec.dropout_windows:
            entry.append(struct.pack(">II", start, end))
        entry.append(_STATE.pack(spec.mean, 0))
        out.append(b"".join(entry))
    return b"".join(out)
