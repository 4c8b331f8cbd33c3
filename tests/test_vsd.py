"""Virtual sensor definitions, connection requests, window queries."""

import random
import re

import pytest

from hubstream.errors import NameCollision, SchemaViolation
from hubstream.sdd import SensorDescriptor, ValueType, build_musdd, fingerprint
from hubstream.vsd import (
    Aggregate,
    VsdCatalog,
    WindowQuery,
    default_query,
    eval_window_query,
    make_wcr,
    parse_vsd,
    serialize_vsd,
)
from hubstream.wrapper import (
    PlanRepository,
    Strategy,
    StreamRecord,
    compile_plan,
    instantiate,
)

from oracles import random_schema


def doc_for(schema, hub="hub_a"):
    sensors = [
        SensorDescriptor(name=n, value_type=t, sample_period_ms=100)
        for n, t in schema
    ]
    return build_musdd(hub, None, sensors)


def records(values_per_record, field="x", hub="hub_a"):
    return [
        StreamRecord(hub, seq, seq * 100, ((field, v),))
        for seq, v in enumerate(values_per_record)
    ]


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
        doc = doc_for([("t", ValueType.INT)])
        vsd = VsdCatalog(tmp_path).generate_vsd(doc, compile_plan(doc, Strategy.SPSW))
        assert vsd.query.count == 1
        assert vsd.query.aggregates == (("t", Aggregate.LATEST),)

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
        catalog.generate_vsd(doc, compile_plan(doc, Strategy.DGCW))
        path = tmp_path / "vsd" / "vs_hub_a.xml"
        assert path.exists()
        assert parse_vsd(path.read_bytes()).hub_id == "hub_a"
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


class TestMakeWcr:
    def test_field_mapping(self, tmp_path):
        doc = doc_for([("t", ValueType.INT)], hub="h1")
        plan = compile_plan(doc, Strategy.DGCW)
        vsd = VsdCatalog(tmp_path).generate_vsd(doc, plan)
        wcr = make_wcr(vsd, 7100)
        assert wcr.wrapper_name == vsd.wrapper_name
        assert wcr.init_params == {"data_port": 7100, "hub_id": "h1"}

    def test_two_ports_differ_only_in_port(self, tmp_path):
        doc = doc_for([("t", ValueType.INT)])
        vsd = VsdCatalog(tmp_path).generate_vsd(doc, compile_plan(doc, Strategy.DGCW))
        a, b = make_wcr(vsd, 7100), make_wcr(vsd, 7200)
        assert a.wrapper_name == b.wrapper_name
        assert a.init_params["hub_id"] == b.init_params["hub_id"]
        assert (a.init_params["data_port"], b.init_params["data_port"]) == (7100, 7200)

    def test_wcr_always_instantiable_against_compiling_repo(self, tmp_path):
        rng = random.Random(31)
        repo = PlanRepository(tmp_path)
        catalog = VsdCatalog(tmp_path)
        for i in range(40):
            strategy = rng.choice(list(Strategy))
            doc = doc_for(random_schema(rng, max_fields=8), hub=f"hub_{i}")
            plan, _ = repo.lookup_or_add(
                fingerprint(doc), strategy, lambda: compile_plan(doc, strategy)
            )
            vsd = catalog.generate_vsd(doc, plan)
            inst = instantiate(make_wcr(vsd, 9000 + i), repo)
            assert inst.hub_id == f"hub_{i}"


class TestWindowQueryValidation:
    def test_needs_exactly_one_window(self):
        with pytest.raises(SchemaViolation):
            WindowQuery((("x", Aggregate.AVG),))
        with pytest.raises(SchemaViolation):
            WindowQuery((("x", Aggregate.AVG),), count=1, duration_ms=5)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_floor(self, count):
        with pytest.raises(SchemaViolation):
            WindowQuery((("x", Aggregate.AVG),), count=count)

    def test_numeric_aggregate_over_string_rejected(self):
        q = WindowQuery((("s", Aggregate.AVG),), count=3)
        with pytest.raises(TypeError):
            q.check_types((("s", ValueType.STRING),))
        # LATEST and COUNT are fine on strings
        WindowQuery(
            (("s", Aggregate.LATEST), ("s2", Aggregate.COUNT)), count=1
        ).check_types((("s", ValueType.STRING), ("s2", ValueType.STRING)))


class TestEval:
    def test_avg_count_window_three(self):
        q = WindowQuery((("x", Aggregate.AVG),), count=3)
        assert eval_window_query(q, records([1.0, 2.0, 3.0])) == [("x", 2.0)]

    def test_avg_window_takes_suffix(self):
        q = WindowQuery((("x", Aggregate.AVG),), count=3)
        assert eval_window_query(q, records([10.0, 1.0, 2.0, 3.0])) == [("x", 2.0)]

    def test_latest_is_positional_not_null_skipping(self):
        q = WindowQuery((("x", Aggregate.LATEST),), count=8)
        out = eval_window_query(q, records([7.0] * 7 + [None]))
        assert out == [("x", None)]

    def test_nulls_excluded_from_aggregates(self):
        q = WindowQuery(
            (("x", Aggregate.AVG),), count=4
        )
        assert eval_window_query(q, records([None, 2.0, None, 4.0])) == [("x", 3.0)]

    def test_all_null_avg_yields_null(self):
        q = WindowQuery((("x", Aggregate.AVG),), count=3)
        assert eval_window_query(q, records([None, None, None])) == [("x", None)]

    def test_count_counts_non_null(self):
        q = WindowQuery((("x", Aggregate.COUNT),), count=5)
        assert eval_window_query(q, records([1, None, 3, None, 5])) == [("x", 3)]

    def test_avg_on_string_values_raises(self):
        q = WindowQuery((("x", Aggregate.AVG),), count=2)
        with pytest.raises(TypeError):
            eval_window_query(q, records(["a", "b"]))

    def test_empty_buffer(self):
        q = WindowQuery((("x", Aggregate.LATEST),), count=3)
        assert eval_window_query(q, []) == [("x", None)]

    def test_duration_window(self):
        recs = records([1.0, 2.0, 3.0, 4.0])  # timestamps 0,100,200,300
        q = WindowQuery((("x", Aggregate.MIN),), duration_ms=150)
        # floor = 300-150 = 150 → records at 200, 300
        assert eval_window_query(q, recs) == [("x", 3.0)]

    def test_random_windows_match_brute_force(self):
        rng = random.Random(77)
        for _ in range(150):
            n = rng.randint(1, 40)
            values = [
                None if rng.random() < 0.2 else rng.uniform(-100, 100)
                for _ in range(n)
            ]
            recs = records(values)
            count = rng.randint(1, n + 3)
            for agg in (Aggregate.AVG, Aggregate.MIN, Aggregate.MAX, Aggregate.COUNT):
                q = WindowQuery((("x", agg),), count=count)
                (_, got), = eval_window_query(q, recs)
                suffix = [v for v in values[-count:] if v is not None]
                if agg is Aggregate.COUNT:
                    expected = len(suffix)
                elif not suffix:
                    expected = None
                elif agg is Aggregate.AVG:
                    expected = sum(suffix) / len(suffix)
                elif agg is Aggregate.MIN:
                    expected = min(suffix)
                else:
                    expected = max(suffix)
                if isinstance(expected, float) and expected == expected:
                    assert got == pytest.approx(expected, rel=1e-12)
                else:
                    assert got == expected

    def test_results_independent_of_ingestion_batching(self):
        rng = random.Random(5)
        values = [rng.uniform(0, 10) for _ in range(500)]
        q = WindowQuery((("x", Aggregate.AVG),), count=64)

        all_records = records(values)
        one_by_one = []
        for r in all_records:
            one_by_one.append(r)
        chunked = []
        i = 0
        while i < len(all_records):
            step = rng.randint(1, 100)
            chunked.extend(all_records[i : i + step])
            i += step
        assert eval_window_query(q, one_by_one) == eval_window_query(q, chunked)


class TestDocumentForm:
    def make_vsd(self, tmp_path, schema=None, hub="hub_a"):
        schema = schema or [("t", ValueType.INT), ("s", ValueType.STRING)]
        doc = doc_for(schema, hub=hub)
        return VsdCatalog(tmp_path).generate_vsd(doc, compile_plan(doc, Strategy.DGCW))

    def test_round_trip(self, tmp_path):
        vsd = self.make_vsd(tmp_path)
        assert parse_vsd(serialize_vsd(vsd)) == vsd

    def test_round_trip_duration_query(self, tmp_path):
        base = self.make_vsd(tmp_path)
        vsd = type(base)(
            vsd_name=base.vsd_name,
            hub_id=base.hub_id,
            output_fields=base.output_fields,
            wrapper_name=base.wrapper_name,
            init_params=base.init_params,
            query=WindowQuery((("t", Aggregate.MAX),), duration_ms=5000),
        )
        assert parse_vsd(serialize_vsd(vsd)) == vsd

    def test_unknown_element_rejected(self, tmp_path):
        data = serialize_vsd(self.make_vsd(tmp_path)).replace(
            b"<address", b"<sneaky x=\"1\"/><address"
        )
        with pytest.raises(SchemaViolation):
            parse_vsd(data)

    @pytest.mark.parametrize("attr", ["window_count", "window_ms"])
    @pytest.mark.parametrize("text", ["x", "1.5"])
    def test_non_integer_window_rejected_typed(self, tmp_path, attr, text):
        data, replaced = re.subn(
            rb'<query window_count="\d+"',
            f'<query {attr}="{text}"'.encode(),
            serialize_vsd(self.make_vsd(tmp_path)),
        )
        assert replaced == 1
        with pytest.raises(SchemaViolation):
            parse_vsd(data)
