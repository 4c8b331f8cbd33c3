"""Hub self-description documents (musdd format).

A hub describes its attached sensors in a compact XML document that both
sides of the registration protocol share:

    <musdd version="1" hub="HUB_ID">
      <context location="..."?>
        <label key="..." value="..."/>*
      </context>?
      <sensor name="..." type="int|double|string" unit="..."? period_ms="..."/>+
    </musdd>

Whitespace between elements is ignored and attribute order is irrelevant,
but the order of ``<sensor>`` elements is significant: it defines the wire
field order.  Parsing is strict: unknown elements, unknown attributes, and
non-whitespace text are rejected, so a document either round-trips exactly
or fails loudly.

The element names above are this project's own definition of the format;
only the information content (sensor name, value type, unit, period,
context) is fixed by the protocol.
"""

from __future__ import annotations

import hashlib
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from enum import Enum
from xml.sax.saxutils import quoteattr

from .errors import (
    BadIdentifier,
    DuplicateField,
    EmptySchema,
    MalformedDocument,
    SchemaViolation,
    UnknownVersion,
)

__all__ = [
    "ValueType",
    "SensorDescriptor",
    "HubContext",
    "MicroSDD",
    "SchemaFingerprint",
    "IDENTIFIER_RE",
    "build_musdd",
    "serialize_musdd",
    "parse_musdd",
    "fingerprint",
    "schema_fingerprint",
    "canonical_schema_bytes",
]

IDENTIFIER_RE = re.compile(r"[a-z][a-z0-9_]{0,63}")


class ValueType(Enum):
    """The three sample value types a sensor may declare."""

    INT = "int"
    DOUBLE = "double"
    STRING = "string"

    @classmethod
    def from_keyword(cls, keyword: str) -> "ValueType":
        for vt in cls:
            if vt.value == keyword:
                return vt
        raise SchemaViolation(f"unknown type keyword {keyword!r}")


def _check_identifier(value: str, what: str) -> str:
    if not isinstance(value, str) or not IDENTIFIER_RE.fullmatch(value):
        raise BadIdentifier(f"{what} {value!r} does not match [a-z][a-z0-9_]{{0,63}}")
    return value


@dataclass(frozen=True)
class SensorDescriptor:
    """One sensor field: name, value type, optional unit, sampling period."""

    name: str
    value_type: ValueType
    sample_period_ms: int
    unit: str | None = None

    def __post_init__(self):
        _check_identifier(self.name, "sensor name")
        if not isinstance(self.sample_period_ms, int) or self.sample_period_ms <= 0:
            raise SchemaViolation(
                f"sample_period_ms must be a positive integer, got {self.sample_period_ms!r}"
            )


@dataclass(frozen=True)
class HubContext:
    """Optional deployment context: location plus free-form labels."""

    location: str | None = None
    labels: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        keys = [k for k, _ in self.labels]
        if len(keys) != len(set(keys)):
            raise SchemaViolation("duplicate label keys")

    def is_empty(self) -> bool:
        return self.location is None and not self.labels


EMPTY_CONTEXT = HubContext()


@dataclass(frozen=True)
class MicroSDD:
    """A hub's complete self-description: identity, context, ordered sensor fields."""

    hub_id: str
    context: HubContext
    sensors: tuple[SensorDescriptor, ...]
    format_version: int = 1

    def __post_init__(self):
        _check_identifier(self.hub_id, "hub id")
        if not self.sensors:
            raise EmptySchema("a document needs at least one sensor")
        names = [s.name for s in self.sensors]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise DuplicateField(f"duplicate sensor names: {sorted(dupes)}")
        if self.format_version < 1:
            raise SchemaViolation("format_version must be >= 1")

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.sensors)


@dataclass(frozen=True)
class SchemaFingerprint:
    """Content address of a sensor schema: 32 lowercase hex characters."""

    digest: str

    def __post_init__(self):
        if not re.fullmatch(r"[0-9a-f]{32}", self.digest):
            raise SchemaViolation(f"bad fingerprint digest {self.digest!r}")

    def __str__(self) -> str:
        return self.digest


def build_musdd(
    hub_id: str,
    context: HubContext | None,
    sensors: list[SensorDescriptor] | tuple[SensorDescriptor, ...],
) -> MicroSDD:
    """Assemble a document from parts, preserving sensor order.

    Raises:
        EmptySchema: no sensors given.
        DuplicateField: two sensors share a name.
        BadIdentifier: hub_id or a sensor name is not a valid identifier.
    """
    return MicroSDD(
        hub_id=hub_id,
        context=context if context is not None else EMPTY_CONTEXT,
        sensors=tuple(sensors),
        format_version=1,
    )


# --- serialization --------------------------------------------------------

def serialize_musdd(doc: MicroSDD) -> bytes:
    """Render the canonical UTF-8 byte form.  Deterministic: equal documents
    serialize to equal bytes."""
    lines = [f'<musdd version="{doc.format_version}" hub={quoteattr(doc.hub_id)}>']
    if not doc.context.is_empty():
        if doc.context.location is not None:
            lines.append(f"  <context location={quoteattr(doc.context.location)}>")
        else:
            lines.append("  <context>")
        for key, value in doc.context.labels:
            lines.append(f"    <label key={quoteattr(key)} value={quoteattr(value)}/>")
        lines.append("  </context>")
    for s in doc.sensors:
        attrs = [f"name={quoteattr(s.name)}", f'type="{s.value_type.value}"']
        if s.unit is not None:
            attrs.append(f"unit={quoteattr(s.unit)}")
        attrs.append(f'period_ms="{s.sample_period_ms}"')
        lines.append(f"  <sensor {' '.join(attrs)}/>")
    lines.append("</musdd>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _require_attrs(elem: ET.Element, required: set[str], optional: set[str]) -> None:
    present = set(elem.attrib)
    missing = required - present
    if missing:
        raise SchemaViolation(f"<{elem.tag}> missing attributes {sorted(missing)}")
    unknown = present - required - optional
    if unknown:
        raise SchemaViolation(f"<{elem.tag}> has unknown attributes {sorted(unknown)}")


def _reject_text(elem: ET.Element) -> None:
    if (elem.text or "").strip() or (elem.tail or "").strip():
        raise SchemaViolation(f"unexpected text content around <{elem.tag}>")


def parse_musdd(data: bytes) -> MicroSDD:
    """Parse and validate document bytes (strict mode).

    Raises:
        MalformedDocument: not well-formed XML or wrong root element.
        UnknownVersion: version attribute is not a known format version.
        SchemaViolation: any schema-level defect (bad type keyword,
            duplicate name, unknown element/attribute, bad period, ...).
    """
    try:
        root = ET.fromstring(data.decode("utf-8"))
    except (ET.ParseError, UnicodeDecodeError, ValueError) as exc:
        raise MalformedDocument(f"document does not parse: {exc}") from exc
    if root.tag != "musdd":
        raise MalformedDocument(f"root element is <{root.tag}>, expected <musdd>")
    _require_attrs(root, {"version", "hub"}, set())
    _reject_text(root)
    version_text = root.attrib["version"]
    if not version_text.isdigit() or int(version_text) != 1:
        raise UnknownVersion(f"unsupported document version {version_text!r}")

    context = EMPTY_CONTEXT
    sensors: list[SensorDescriptor] = []
    seen_context = False
    for child in root:
        _reject_text(child)
        if child.tag == "context":
            if seen_context or sensors:
                raise SchemaViolation("<context> must appear once, before sensors")
            seen_context = True
            _require_attrs(child, set(), {"location"})
            labels = []
            for label in child:
                _reject_text(label)
                if label.tag != "label":
                    raise SchemaViolation(f"unknown element <{label.tag}> in <context>")
                _require_attrs(label, {"key", "value"}, set())
                if len(label):
                    raise SchemaViolation("<label> must be empty")
                labels.append((label.attrib["key"], label.attrib["value"]))
            context = HubContext(
                location=child.attrib.get("location"), labels=tuple(labels)
            )
        elif child.tag == "sensor":
            _require_attrs(child, {"name", "type", "period_ms"}, {"unit"})
            if len(child):
                raise SchemaViolation("<sensor> must be empty")
            period_text = child.attrib["period_ms"]
            if not period_text.isdigit() or int(period_text) <= 0:
                raise SchemaViolation(f"bad period_ms {period_text!r}")
            sensors.append(
                SensorDescriptor(
                    name=_sensor_name(child.attrib["name"]),
                    value_type=ValueType.from_keyword(child.attrib["type"]),
                    unit=child.attrib.get("unit"),
                    sample_period_ms=int(period_text),
                )
            )
        else:
            raise SchemaViolation(f"unknown element <{child.tag}>")

    try:
        return MicroSDD(
            hub_id=_hub_id(root.attrib["hub"]),
            context=context,
            sensors=tuple(sensors),
        )
    except (EmptySchema, DuplicateField) as exc:
        raise SchemaViolation(str(exc)) from exc


def _sensor_name(name: str) -> str:
    try:
        return _check_identifier(name, "sensor name")
    except BadIdentifier as exc:
        raise SchemaViolation(str(exc)) from exc


def _hub_id(hub_id: str) -> str:
    try:
        return _check_identifier(hub_id, "hub id")
    except BadIdentifier as exc:
        raise SchemaViolation(str(exc)) from exc


# --- fingerprinting --------------------------------------------------------

def canonical_schema_bytes(fields) -> bytes:
    """Canonical byte string the fingerprint is computed over, from (name,
    ValueType) pairs: sorted by name, one ``name:TYPE\\n`` line each.  Hub
    identity, context, units, and sample periods are deliberately excluded
    so hubs with identical field schemas share one decode plan."""
    lines = sorted(f"{name}:{value_type.name}\n" for name, value_type in fields)
    return "".join(lines).encode("ascii")


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def schema_fingerprint(fields) -> SchemaFingerprint:
    """Content-address a schema given as (name, ValueType) pairs, such as a
    plan's field layout."""
    return SchemaFingerprint(_digest(canonical_schema_bytes(fields)))


def fingerprint(doc: MicroSDD) -> SchemaFingerprint:
    """Content-address the document's sensor schema (shape only, not rate)."""
    return schema_fingerprint((s.name, s.value_type) for s in doc.sensors)


# Digest the schema-agnostic generic plan persists under: the fingerprint
# of an empty canonical schema string.
GENERIC_SCHEMA_DIGEST = _digest(b"")
