"""Virtual sensor definitions and their windowed queries.

Every registered hub gets exactly one virtual sensor definition: a
declaration binding the hub's output schema to its stream source (the
wrapper name plus init parameters) and an optional window query.  The
definition is persisted for inspection at ``<store>/vsd/vs_<hub_id>.xml``
in a document format mirroring the hub self-description grammar with an
added ``<address wrapper="..."/>`` element:

    <vsd version="1" name="vs_HUB_ID" hub="HUB_ID">
      <address wrapper="dgcw_<digest>"/>
      <field name="..." type="int|double|string"/>+
      <query window_count="N" | window_ms="MS">
        <aggregate field="..." op="latest|avg|min|max|count"/>+
      </query>?
    </vsd>

The query surface is deliberately tiny: one window (count or duration)
and one aggregate per field, evaluated over whatever record buffer the
caller holds.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
import xml.etree.ElementTree as ET
from xml.sax.saxutils import quoteattr

from .errors import (
    MalformedDocument,
    NameCollision,
    RepositoryIO,
    SchemaViolation,
    UnknownVersion,
)
from .sdd import MicroSDD, ValueType
from .wrapper import (
    StreamRecord,
    Strategy,
    WrapperPlan,
    WrapperConnectionRequest,
    wrapper_name_for,
)

__all__ = [
    "Aggregate",
    "WindowQuery",
    "VirtualSensorDefinition",
    "VsdCatalog",
    "make_wcr",
    "eval_window_query",
    "default_query",
    "serialize_vsd",
    "parse_vsd",
]


class Aggregate(Enum):
    LATEST = "latest"
    AVG = "avg"
    MIN = "min"
    MAX = "max"
    COUNT = "count"

    @classmethod
    def from_keyword(cls, keyword: str) -> "Aggregate":
        for a in cls:
            if a.value == keyword:
                return a
        raise SchemaViolation(f"unknown aggregate {keyword!r}")


_NUMERIC_ONLY = (Aggregate.AVG, Aggregate.MIN, Aggregate.MAX)


@dataclass(frozen=True)
class WindowQuery:
    """A window (record count or trailing duration, exactly one) and one
    aggregate per field."""

    aggregates: tuple[tuple[str, Aggregate], ...]
    count: int | None = None
    duration_ms: int | None = None

    def __post_init__(self):
        if (self.count is None) == (self.duration_ms is None):
            raise SchemaViolation("exactly one of count and duration_ms")
        if self.count is not None and self.count < 1:
            raise SchemaViolation("window count must be >= 1")
        if self.duration_ms is not None and self.duration_ms <= 0:
            raise SchemaViolation("window duration must be positive")
        names = [n for n, _ in self.aggregates]
        if len(names) != len(set(names)):
            raise SchemaViolation("duplicate aggregate fields")

    def check_types(self, output_fields) -> None:
        """Reject numeric aggregates over STRING fields."""
        types = dict(output_fields)
        for name, agg in self.aggregates:
            if agg in _NUMERIC_ONLY and types.get(name) is ValueType.STRING:
                raise TypeError(f"{agg.value} over STRING field {name!r}")


def default_query(output_fields) -> WindowQuery:
    """LATEST of every field over a count window of 1."""
    return WindowQuery(
        aggregates=tuple((name, Aggregate.LATEST) for name, _ in output_fields),
        count=1,
    )


@dataclass(frozen=True)
class VirtualSensorDefinition:
    vsd_name: str
    hub_id: str
    output_fields: tuple[tuple[str, ValueType], ...]
    wrapper_name: str
    init_params: tuple[tuple[str, str], ...]
    query: WindowQuery


def make_wcr(vsd: VirtualSensorDefinition, data_port: int) -> WrapperConnectionRequest:
    """Derive the connection request: the wrapper named by the definition's
    address block, initialized with the assigned port and the hub id."""
    return WrapperConnectionRequest(
        wrapper_name=vsd.wrapper_name,
        init_params={"data_port": data_port, "hub_id": vsd.hub_id},
    )


def eval_window_query(query: WindowQuery, records: list[StreamRecord]) -> list:
    """Evaluate aggregates over the window suffix of an ordered record
    buffer.  Returns [(field, value)] in the query's aggregate order.

    Count windows take the last N records; duration windows take records
    with timestamps within duration_ms of the newest (inclusive).  Nulls
    are excluded from AVG/MIN/MAX/COUNT; an all-null window yields None.
    LATEST is positional: the newest record's value, null or not.
    """
    if query.count is not None:
        window = records[-query.count :]
    elif not records:
        window = []
    else:
        floor = records[-1].timestamp_ms - query.duration_ms
        window = [r for r in records if r.timestamp_ms >= floor]

    result = []
    for name, agg in query.aggregates:
        column = [dict(r.values)[name] for r in window]
        present = [v for v in column if v is not None]
        if any(isinstance(v, str) for v in present) and agg in _NUMERIC_ONLY:
            raise TypeError(f"{agg.value} over STRING field {name!r}")
        if agg is Aggregate.LATEST:
            value = column[-1] if column else None
        elif agg is Aggregate.COUNT:
            value = len(present)
        elif not present:
            value = None
        elif agg is Aggregate.AVG:
            value = statistics.fmean(present)
        elif agg is Aggregate.MIN:
            value = min(present)
        else:
            value = max(present)
        result.append((name, value))
    return result


# --- document form -----------------------------------------------------------

def serialize_vsd(vsd: VirtualSensorDefinition) -> bytes:
    lines = [
        f'<vsd version="1" name={quoteattr(vsd.vsd_name)} hub={quoteattr(vsd.hub_id)}>',
        f"  <address wrapper={quoteattr(vsd.wrapper_name)}/>",
    ]
    for name, vtype in vsd.output_fields:
        lines.append(f'  <field name={quoteattr(name)} type="{vtype.value}"/>')
    q = vsd.query
    if q.count is not None:
        lines.append(f'  <query window_count="{q.count}">')
    else:
        lines.append(f'  <query window_ms="{q.duration_ms}">')
    for name, agg in q.aggregates:
        lines.append(f'    <aggregate field={quoteattr(name)} op="{agg.value}"/>')
    lines.append("  </query>")
    lines.append("</vsd>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _int_attr(element, key: str) -> int:
    text = element.attrib[key]
    try:
        return int(text)
    except ValueError:
        raise SchemaViolation(f"<{element.tag}> {key} must be an integer, got {text!r}") from None


def parse_vsd(data: bytes) -> VirtualSensorDefinition:
    try:
        root = ET.fromstring(data.decode("utf-8"))
    except (ET.ParseError, UnicodeDecodeError, ValueError) as exc:
        raise MalformedDocument(f"definition does not parse: {exc}") from exc
    if root.tag != "vsd":
        raise MalformedDocument(f"root element is <{root.tag}>, expected <vsd>")
    required = {"version", "name", "hub"}
    if set(root.attrib) != required:
        raise SchemaViolation(f"<vsd> must have exactly attributes {sorted(required)}")
    if root.attrib["version"] != "1":
        raise UnknownVersion(f"unsupported definition version {root.attrib['version']!r}")

    wrapper_name = None
    fields: list[tuple[str, ValueType]] = []
    query = None
    for child in root:
        if child.tag == "address":
            if wrapper_name is not None:
                raise SchemaViolation("duplicate <address>")
            if set(child.attrib) != {"wrapper"}:
                raise SchemaViolation("<address> takes exactly the wrapper attribute")
            wrapper_name = child.attrib["wrapper"]
        elif child.tag == "field":
            if set(child.attrib) != {"name", "type"}:
                raise SchemaViolation("<field> takes exactly name and type")
            fields.append(
                (child.attrib["name"], ValueType.from_keyword(child.attrib["type"]))
            )
        elif child.tag == "query":
            aggregates = []
            for agg in child:
                if agg.tag != "aggregate" or set(agg.attrib) != {"field", "op"}:
                    raise SchemaViolation("bad <aggregate> element")
                aggregates.append(
                    (agg.attrib["field"], Aggregate.from_keyword(agg.attrib["op"]))
                )
            if set(child.attrib) == {"window_count"}:
                query = WindowQuery(tuple(aggregates), count=_int_attr(child, "window_count"))
            elif set(child.attrib) == {"window_ms"}:
                query = WindowQuery(tuple(aggregates), duration_ms=_int_attr(child, "window_ms"))
            else:
                raise SchemaViolation("<query> takes window_count or window_ms")
        else:
            raise SchemaViolation(f"unknown element <{child.tag}>")
    if wrapper_name is None:
        raise SchemaViolation("missing <address>")
    if not fields:
        raise SchemaViolation("definition needs at least one field")
    if query is None:
        query = default_query(fields)
    return VirtualSensorDefinition(
        vsd_name=root.attrib["name"],
        hub_id=root.attrib["hub"],
        output_fields=tuple(fields),
        wrapper_name=wrapper_name,
        init_params=(("hub_id", root.attrib["hub"]),),
        query=query,
    )


class VsdCatalog:
    """Registry of live definitions, one per hub, persisted for inspection.

    Liveness is in-memory state: a definition file left by an earlier
    process does not block a fresh registration (the file is overwritten),
    but a second generate for a hub that is live in this process raises
    NameCollision until torn down.
    """

    def __init__(self, store_dir):
        self._dir = Path(store_dir) / "vsd"
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise RepositoryIO(f"cannot open vsd store: {exc}") from exc
        self._live: dict[str, VirtualSensorDefinition] = {}

    def generate_vsd(self, doc: MicroSDD, plan: WrapperPlan) -> VirtualSensorDefinition:
        """Build, record, and persist the hub's definition.

        Raises NameCollision when this hub already has a live definition.
        """
        if doc.hub_id in self._live:
            raise NameCollision(f"live definition exists for hub {doc.hub_id!r}")
        vsd = VirtualSensorDefinition(
            vsd_name=f"vs_{doc.hub_id}",
            hub_id=doc.hub_id,
            output_fields=plan.field_layout,
            wrapper_name=wrapper_name_for(plan.strategy, plan.fingerprint),
            init_params=(("hub_id", doc.hub_id),),
            query=default_query(plan.field_layout),
        )
        try:
            (self._dir / f"{vsd.vsd_name}.xml").write_bytes(serialize_vsd(vsd))
        except OSError as exc:
            raise RepositoryIO(f"cannot write definition: {exc}") from exc
        self._live[doc.hub_id] = vsd
        return vsd

    def teardown(self, hub_id: str) -> None:
        """Drop the live definition and its file.  Unknown hubs are a no-op
        so rollback paths can call this unconditionally."""
        vsd = self._live.pop(hub_id, None)
        if vsd is not None:
            (self._dir / f"{vsd.vsd_name}.xml").unlink(missing_ok=True)

    def live(self, hub_id: str) -> VirtualSensorDefinition | None:
        return self._live.get(hub_id)
