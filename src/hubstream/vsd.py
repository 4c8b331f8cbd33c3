"""Virtual sensor definitions and the one query they carry.

Every registered hub gets exactly one virtual sensor definition: a
declaration binding the hub's output schema to its stream source, the
wrapper named after the hub's plan.  The definition is
persisted for inspection at ``<store>/vsd/vs_<hub_id>.xml`` in a document
format mirroring the hub self-description grammar with an added
``<address wrapper="..."/>`` element:

    <vsd version="1" name="vs_HUB_ID" hub="HUB_ID">
      <address wrapper="dgcw_<digest>"/>
      <field name="..." type="int|double|string"/>+
      <query window_count="1">
        <aggregate field="..." op="latest"/>+
      </query>
    </vsd>

The query is fixed: LATEST of every field, in field order, over a count
window of 1.  It reads one record, the newest by sequence number, so
STATUS_WINDOW answers from the same record as STATUS_LATEST.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import quoteattr

from .errors import NameCollision, RepositoryIO
from .sdd import MicroSDD, ValueType
from .wrapper import StreamRecord, WrapperPlan, wrapper_name_for

__all__ = [
    "VirtualSensorDefinition",
    "VsdCatalog",
    "eval_window_query",
    "serialize_vsd",
    "QUERY_OP",
]

QUERY_OP = "latest"  # the fixed query's one aggregate, applied to every field


@dataclass(frozen=True)
class VirtualSensorDefinition:
    vsd_name: str
    hub_id: str
    output_fields: tuple[tuple[str, ValueType], ...]
    wrapper_name: str


def eval_window_query(field_names, newest: StreamRecord | None) -> list:
    """The definition's query: the (field, value) pairs of the newest
    record, or every field with None before any record."""
    if newest is None:
        return [(name, None) for name in field_names]
    return list(newest.values)


# --- document form -----------------------------------------------------------

def serialize_vsd(vsd: VirtualSensorDefinition) -> bytes:
    lines = [
        f'<vsd version="1" name={quoteattr(vsd.vsd_name)} hub={quoteattr(vsd.hub_id)}>',
        f"  <address wrapper={quoteattr(vsd.wrapper_name)}/>",
    ]
    for name, vtype in vsd.output_fields:
        lines.append(f'  <field name={quoteattr(name)} type="{vtype.value}"/>')
    lines.append('  <query window_count="1">')
    for name, _ in vsd.output_fields:
        lines.append(f'    <aggregate field={quoteattr(name)} op="{QUERY_OP}"/>')
    lines.append("  </query>")
    lines.append("</vsd>")
    return ("\n".join(lines) + "\n").encode("utf-8")


class VsdCatalog:
    """Registry of live definitions, one per hub, persisted for inspection.

    Liveness is in-memory state, and no hub is live when a catalog opens,
    so opening deletes every definition file an earlier process left (one
    that ended without tearing its hubs down): the directory lists exactly
    the live hubs.  A second generate for a live hub raises NameCollision
    until torn down.
    """

    def __init__(self, store_dir):
        self._dir = Path(store_dir) / "vsd"
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
            for path in self._dir.glob("*.xml"):
                path.unlink()
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
