"""Virtual sensor definitions, their address blocks, the fixed query."""

import random
import re

import pytest

from hubstream.errors import NameCollision
from hubstream.sdd import (
    GENERIC_SCHEMA_DIGEST,
    SensorDescriptor,
    ValueType,
    build_musdd,
    fingerprint,
)
from hubstream.vsd import VsdCatalog, eval_window_query, serialize_vsd
from hubstream.wrapper import (
    PlanRepository,
    Strategy,
    StreamRecord,
    compile_plan,
    load_plan,
)

from oracles import random_schema


def doc_for(schema, hub="hub_a"):
    sensors = [
        SensorDescriptor(name=n, value_type=t, sample_period_ms=100)
        for n, t in schema
    ]
    return build_musdd(hub, None, sensors)


class TestGenerate:
    def test_eight_sensor_doc(self, tmp_path):
        schema = [(f"s{i}", ValueType.DOUBLE) for i in range(8)]
        doc = doc_for(schema)
        plan = compile_plan(doc, Strategy.DGCW)
        vsd = VsdCatalog(tmp_path).generate_vsd(doc, plan)
        assert vsd.vsd_name == "vs_hub_a"
        assert len(vsd.output_fields) == 8
        assert vsd.wrapper_name == f"dgcw_{plan.fingerprint.digest}"
        assert vsd.output_fields == tuple(schema)

    def test_default_query_is_latest_count_one(self, tmp_path):
        doc = doc_for([("t", ValueType.INT), ("u", ValueType.STRING)])
        VsdCatalog(tmp_path).generate_vsd(doc, compile_plan(doc, Strategy.SPSW))
        text = (tmp_path / "vsd" / "vs_hub_a.xml").read_text()
        assert text.count("<query ") == 1
        assert '<query window_count="1">' in text
        assert text.count('op="latest"') == 2

    def test_collision_without_teardown(self, tmp_path):
        doc = doc_for([("t", ValueType.INT)])
        plan = compile_plan(doc, Strategy.DGCW)
        catalog = VsdCatalog(tmp_path)
        catalog.generate_vsd(doc, plan)
        with pytest.raises(NameCollision):
            catalog.generate_vsd(doc, plan)
        catalog.teardown("hub_a")
        catalog.generate_vsd(doc, plan)  # fine again

    def test_file_lifecycle(self, tmp_path):
        doc = doc_for([("t", ValueType.INT)])
        catalog = VsdCatalog(tmp_path)
        vsd = catalog.generate_vsd(doc, compile_plan(doc, Strategy.DGCW))
        path = tmp_path / "vsd" / "vs_hub_a.xml"
        assert path.read_bytes() == serialize_vsd(vsd)
        catalog.teardown("hub_a")
        assert not path.exists()

    def test_output_schema_matches_doc_and_plan(self, tmp_path):
        rng = random.Random(21)
        catalog = VsdCatalog(tmp_path)
        for i in range(30):
            schema = random_schema(rng, max_fields=10)
            doc = doc_for(schema, hub=f"hub_{i}")
            plan = compile_plan(doc, Strategy.DGCW)
            vsd = catalog.generate_vsd(doc, plan)
            from_doc = tuple((s.name, s.value_type) for s in doc.sensors)
            from_plan = tuple((f.name, f.value_type) for f in plan.field_layout)
            assert vsd.output_fields == from_doc == from_plan


class TestAddress:
    def test_every_live_address_names_a_stored_plan(self, tmp_path):
        """The address block of each definition file names the plan file the
        hub's wrapper runs: DGCW's per-schema file, with the definition's
        fields, or SPSW's one generic file."""
        rng = random.Random(31)
        repo = PlanRepository(tmp_path)
        catalog = VsdCatalog(tmp_path)
        hubs = []
        for i in range(40):
            schema = random_schema(rng, max_fields=8)
            for strategy in Strategy:
                doc = doc_for(schema, hub=f"hub_{i}_{strategy.tag}")
                plan, _ = repo.lookup_or_add(
                    fingerprint(doc), strategy, lambda: compile_plan(doc, strategy)
                )
                catalog.generate_vsd(doc, plan)
                hubs.append(doc.hub_id)
        address = re.compile(r'<address wrapper="([a-z]+)_([0-9a-f]{32})"/>')
        for hub in hubs:
            vsd = catalog.live(hub)
            text = (tmp_path / "vsd" / f"{vsd.vsd_name}.xml").read_text()
            tag, digest = address.search(text).groups()
            if tag == "dgcw":
                path = tmp_path / "plans" / "dgcw" / f"{digest}.plan"
                assert load_plan(path.read_bytes(), digest).field_layout == vsd.output_fields
            else:
                assert tag == "spsw"
                path = tmp_path / "plans" / "spsw" / f"{GENERIC_SCHEMA_DIGEST}.plan"
                assert load_plan(path.read_bytes(), GENERIC_SCHEMA_DIGEST).strategy is Strategy.SPSW


class TestEval:
    def test_latest_is_positional_not_null_skipping(self):
        newest = StreamRecord("hub_a", 7, 700, (("x", None), ("y", 2.5)))
        assert eval_window_query(("x", "y"), newest) == [("x", None), ("y", 2.5)]

    def test_empty_buffer(self):
        assert eval_window_query(("x", "y"), None) == [("x", None), ("y", None)]


class TestDocumentForm:
    def test_definition_file_bytes_pinned(self, tmp_path):
        doc = doc_for([("count", ValueType.INT), ("temp", ValueType.DOUBLE), ("mode", ValueType.STRING)])
        VsdCatalog(tmp_path).generate_vsd(doc, compile_plan(doc, Strategy.DGCW))
        assert (tmp_path / "vsd" / "vs_hub_a.xml").read_bytes() == (
            b'<vsd version="1" name="vs_hub_a" hub="hub_a">\n'
            b'  <address wrapper="dgcw_95d15fe3ac4ea6093f9c08b8c8ae9376"/>\n'
            b'  <field name="count" type="int"/>\n'
            b'  <field name="temp" type="double"/>\n'
            b'  <field name="mode" type="string"/>\n'
            b'  <query window_count="1">\n'
            b'    <aggregate field="count" op="latest"/>\n'
            b'    <aggregate field="temp" op="latest"/>\n'
            b'    <aggregate field="mode" op="latest"/>\n'
            b"  </query>\n"
            b"</vsd>\n"
        )
