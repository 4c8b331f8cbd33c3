"""Plan compilation, strategy equivalence, the repository, and the lifecycle."""

import random
import struct
import threading

import pytest
from hypothesis import given, settings, strategies as st

from hubstream.errors import (
    FrameTooShort,
    HubStreamError,
    IllegalTransition,
    InvalidText,
    MalformedDocument,
    MissingInitParam,
    SequenceRegression,
    TrailingBytes,
    TypeTagMismatch,
    UnknownWrapper,
)
from hubstream.sdd import (
    GENERIC_SCHEMA_DIGEST,
    SensorDescriptor,
    ValueType,
    build_musdd,
    fingerprint,
)
from hubstream.wrapper import (
    DEDUP_WINDOW,
    LifecycleState,
    PlanRepository,
    Strategy,
    WrapperConnectionRequest,
    WrapperInstance,
    compile_plan,
    decode_record,
    instantiate,
    load_plan,
    serialize_plan,
    wrapper_name_for,
)

from oracles import (
    LIFECYCLE_EVENTS,
    lifecycle_oracle,
    random_row,
    random_schema,
    reference_frame,
    reference_offsets,
)


def doc_for(schema, hub="hub_a"):
    sensors = [
        SensorDescriptor(name=n, value_type=t, sample_period_ms=100)
        for n, t in schema
    ]
    return build_musdd(hub, None, sensors)


def plans_for(schema):
    doc = doc_for(schema)
    return compile_plan(doc, Strategy.SPSW), compile_plan(doc, Strategy.DGCW)


class TestOffsets:
    def test_single_int_field(self):
        _, dgcw = plans_for([("f", ValueType.INT)])
        assert [f.fixed_offset for f in dgcw.field_layout] == [0]

    def test_eight_doubles_stride_nine(self):
        schema = [(f"d{i}", ValueType.DOUBLE) for i in range(8)]
        _, dgcw = plans_for(schema)
        assert [f.fixed_offset for f in dgcw.field_layout] == [
            0, 9, 18, 27, 36, 45, 54, 63,
        ]

    def test_offsets_stop_after_first_string(self):
        schema = [
            ("a", ValueType.INT),
            ("b", ValueType.STRING),
            ("c", ValueType.DOUBLE),
        ]
        _, dgcw = plans_for(schema)
        assert [f.fixed_offset for f in dgcw.field_layout] == [0, 9, None]

    def test_spsw_has_no_offsets(self):
        spsw, _ = plans_for([("a", ValueType.INT), ("b", ValueType.STRING)])
        assert all(f.fixed_offset is None for f in spsw.field_layout)

    def test_matches_reference_calculator_on_random_schemas(self):
        rng = random.Random(7)
        for _ in range(200):
            schema = random_schema(rng, max_fields=16)
            _, dgcw = plans_for(schema)
            expected = reference_offsets([t for _, t in schema])
            assert [f.fixed_offset for f in dgcw.field_layout] == expected


class TestDecode:
    def test_single_int_present(self):
        schema = [("f", ValueType.INT)]
        frame = reference_frame(schema, [5], sequence=1, timestamp_ms=0)
        for plan in plans_for(schema):
            rec = decode_record(plan, frame, "hub_a")
            assert rec.values == (("f", 5),)
            assert (rec.sequence, rec.timestamp_ms, rec.hub_id) == (1, 0, "hub_a")

    def test_null_field(self):
        schema = [("f", ValueType.DOUBLE)]
        frame = reference_frame(schema, [None], 2, 10)
        for plan in plans_for(schema):
            assert decode_record(plan, frame).values == (("f", None),)

    def test_empty_string_value(self):
        schema = [("s", ValueType.STRING)]
        frame = reference_frame(schema, [""], 0, 0)
        for plan in plans_for(schema):
            assert decode_record(plan, frame).values == (("s", ""),)

    def test_nan_payload_decodes_identically(self):
        import math

        schema = [("d", ValueType.DOUBLE)]
        frame = reference_frame(schema, [float("nan")], 0, 0)
        spsw, dgcw = plans_for(schema)
        a = decode_record(spsw, frame).values[0][1]
        b = decode_record(dgcw, frame).values[0][1]
        assert math.isnan(a) and math.isnan(b)

    def test_strategy_equivalence_over_random_frames(self):
        rng = random.Random(101)
        for _ in range(300):
            schema = random_schema(rng, max_fields=12)
            spsw, dgcw = plans_for(schema)
            for seq in range(5):
                row = random_row(rng, schema)
                frame = reference_frame(schema, row, seq, rng.randint(0, 2**40))
                assert decode_record(spsw, frame) == decode_record(dgcw, frame)

    def test_decoded_values_match_input_row(self):
        rng = random.Random(55)
        schema = random_schema(rng, max_fields=8)
        row = random_row(rng, schema, null_rate=0.3)
        frame = reference_frame(schema, row, 9, 1234)
        for plan in plans_for(schema):
            rec = decode_record(plan, frame)
            assert [v for _, v in rec.values] == row
            assert [n for n, _ in rec.values] == [n for n, _ in schema]

    def test_frame_too_short_header(self):
        for plan in plans_for([("f", ValueType.INT)]):
            with pytest.raises(FrameTooShort):
                decode_record(plan, b"\x00" * 10)

    def test_frame_truncated_in_field(self):
        schema = [("f", ValueType.INT)]
        frame = reference_frame(schema, [5], 0, 0)[:-3]
        for plan in plans_for(schema):
            with pytest.raises(FrameTooShort):
                decode_record(plan, frame)

    def test_trailing_bytes(self):
        schema = [("f", ValueType.STRING)]
        frame = reference_frame(schema, ["x"], 0, 0) + b"zz"
        for plan in plans_for(schema):
            with pytest.raises(TrailingBytes):
                decode_record(plan, frame)

    def test_spsw_rejects_bad_presence_tag(self):
        schema = [("f", ValueType.INT)]
        spsw, _ = plans_for(schema)
        frame = struct.pack(">QQ", 0, 0) + bytes([0x07]) + struct.pack(">q", 1)
        with pytest.raises(TypeTagMismatch):
            decode_record(spsw, frame)

    def test_string_length_beyond_frame(self):
        schema = [("s", ValueType.STRING)]
        frame = struct.pack(">QQ", 0, 0) + bytes([0x01]) + struct.pack(">I", 99) + b"ab"
        for plan in plans_for(schema):
            with pytest.raises(FrameTooShort):
                decode_record(plan, frame)

    def test_string_that_is_not_utf8(self):
        schema = [("s", ValueType.STRING)]
        frame = struct.pack(">QQ", 0, 0) + bytes([0x01]) + struct.pack(">I", 2) + b"\xff\xfe"
        for plan in plans_for(schema):
            with pytest.raises(InvalidText):
                decode_record(plan, frame)


class TestPlanSerialization:
    def test_compile_twice_byte_identical(self):
        doc = doc_for([("a", ValueType.INT), ("b", ValueType.STRING)])
        for strategy in Strategy:
            one = serialize_plan(compile_plan(doc, strategy))
            two = serialize_plan(compile_plan(doc, strategy))
            assert one == two

    def test_plan_size_equals_serialized_length(self):
        rng = random.Random(3)
        for _ in range(50):
            doc = doc_for(random_schema(rng, max_fields=10))
            for strategy in Strategy:
                plan = compile_plan(doc, strategy)
                assert plan.plan_size_bytes == len(serialize_plan(plan))

    def test_spsw_serialized_form_is_schema_independent(self):
        a = serialize_plan(compile_plan(doc_for([("x", ValueType.INT)]), Strategy.SPSW))
        b = serialize_plan(
            compile_plan(
                doc_for([(f"f{i}", ValueType.STRING) for i in range(20)]),
                Strategy.SPSW,
            )
        )
        assert a == b

    def test_dgcw_grows_with_schema(self):
        small = compile_plan(doc_for([("a", ValueType.INT)]), Strategy.DGCW)
        big = compile_plan(
            doc_for([(f"f{i}", ValueType.INT) for i in range(20)]), Strategy.DGCW
        )
        assert big.plan_size_bytes > small.plan_size_bytes

    def test_load_round_trip(self):
        doc = doc_for(
            [("a", ValueType.INT), ("s", ValueType.STRING), ("d", ValueType.DOUBLE)]
        )
        plan = compile_plan(doc, Strategy.DGCW)
        loaded = load_plan(serialize_plan(plan), plan.fingerprint.digest)
        assert loaded == plan  # compiled_at excluded from comparison
        # and the rebuilt decoder works
        schema = [(s.name, s.value_type) for s in doc.sensors]
        frame = reference_frame(schema, [1, "x", 2.5], 0, 0)
        assert decode_record(loaded, frame) == decode_record(plan, frame)

    def test_load_rejects_bad_magic(self):
        with pytest.raises(MalformedDocument):
            load_plan(b"XXXX\x01\x02\x00\x00", "0" * 32)

    def test_load_rejects_field_name_that_is_not_utf8(self):
        doc = doc_for([("ab", ValueType.INT)])
        raw = serialize_plan(compile_plan(doc, Strategy.DGCW)).replace(b"ab", b"\xff\xfe")
        with pytest.raises(HubStreamError):
            load_plan(raw, "0" * 32)

    def test_load_rejects_trailing_bytes(self):
        doc = doc_for([("a", ValueType.INT)])
        raw = serialize_plan(compile_plan(doc, Strategy.DGCW)) + b"!"
        with pytest.raises(TrailingBytes):
            load_plan(raw, "0" * 32)


class TestRepository:
    def test_miss_then_hit(self, tmp_path):
        repo = PlanRepository(tmp_path)
        doc = doc_for([("a", ValueType.INT)])
        fp = fingerprint(doc)
        plan, hit = repo.lookup_or_add(fp, Strategy.DGCW, lambda: compile_plan(doc, Strategy.DGCW))
        assert hit is False
        again, hit = repo.lookup_or_add(fp, Strategy.DGCW, lambda: compile_plan(doc, Strategy.DGCW))
        assert hit is True
        assert again is plan

    def test_dgcw_hit_survives_reopen_without_recompile(self, tmp_path):
        doc = doc_for([("a", ValueType.INT), ("b", ValueType.DOUBLE)])
        fp = fingerprint(doc)
        repo = PlanRepository(tmp_path)
        repo.lookup_or_add(fp, Strategy.DGCW, lambda: compile_plan(doc, Strategy.DGCW))

        def must_not_compile():
            raise AssertionError("compile_fn invoked on a warm store")

        reopened = PlanRepository(tmp_path)
        plan, hit = reopened.lookup_or_add(fp, Strategy.DGCW, must_not_compile)
        assert hit is True
        assert plan.field_names == ("a", "b")

    def test_spsw_store_is_one_constant_file(self, tmp_path):
        repo = PlanRepository(tmp_path)
        rng = random.Random(11)
        for _ in range(10):
            doc = doc_for(random_schema(rng, max_fields=8))
            repo.lookup_or_add(
                fingerprint(doc), Strategy.SPSW, lambda d=doc: compile_plan(d, Strategy.SPSW)
            )
        files = list((tmp_path / "plans" / "spsw").glob("*.plan"))
        assert len(files) == 1
        assert files[0].stem == GENERIC_SCHEMA_DIGEST

    def test_dgcw_one_file_per_fingerprint(self, tmp_path):
        repo = PlanRepository(tmp_path)
        rng = random.Random(12)
        fps = set()
        for _ in range(7):
            doc = doc_for(random_schema(rng, max_fields=8))
            fps.add(fingerprint(doc).digest)
            repo.lookup_or_add(
                fingerprint(doc), Strategy.DGCW, lambda d=doc: compile_plan(d, Strategy.DGCW)
            )
        files = {p.stem for p in (tmp_path / "plans" / "dgcw").glob("*.plan")}
        assert files == fps

    def test_concurrent_lookups_single_writer(self, tmp_path):
        repo = PlanRepository(tmp_path)
        doc = doc_for([("a", ValueType.INT)])
        fp = fingerprint(doc)
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            plan, hit = repo.lookup_or_add(
                fp, Strategy.DGCW, lambda: compile_plan(doc, Strategy.DGCW)
            )
            results.append((id(plan), hit))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(1 for _, hit in results if not hit) == 1
        assert len({plan_id for plan_id, _ in results}) == 1


class TestInstantiate:
    def make_repo(self, tmp_path, doc, strategy):
        repo = PlanRepository(tmp_path)
        plan, _ = repo.lookup_or_add(
            fingerprint(doc), strategy, lambda: compile_plan(doc, strategy)
        )
        return repo, plan

    def test_resolves_and_builds_created_instance(self, tmp_path):
        doc = doc_for([("a", ValueType.INT)])
        repo, plan = self.make_repo(tmp_path, doc, Strategy.DGCW)
        wcr = WrapperConnectionRequest(
            wrapper_name=wrapper_name_for(Strategy.DGCW, plan.fingerprint),
            init_params={"data_port": 9000, "hub_id": "hub_a"},
        )
        inst = instantiate(wcr, repo)
        assert inst.state is LifecycleState.CREATED
        assert inst.plan is plan
        assert inst.hub_id == "hub_a"

    def test_missing_init_param(self, tmp_path):
        doc = doc_for([("a", ValueType.INT)])
        repo, plan = self.make_repo(tmp_path, doc, Strategy.DGCW)
        wcr = WrapperConnectionRequest(
            wrapper_name=wrapper_name_for(Strategy.DGCW, plan.fingerprint),
            init_params={"hub_id": "hub_a"},
        )
        with pytest.raises(MissingInitParam):
            instantiate(wcr, repo)

    def test_unknown_wrapper(self, tmp_path):
        repo = PlanRepository(tmp_path)
        wcr = WrapperConnectionRequest(
            wrapper_name="dgcw_" + "0" * 32,
            init_params={"data_port": 1, "hub_id": "h"},
        )
        with pytest.raises(UnknownWrapper):
            instantiate(wcr, repo)


def make_instance(schema=None):
    schema = schema or [("f", ValueType.INT)]
    plan = compile_plan(doc_for(schema), Strategy.DGCW)
    return WrapperInstance(plan, "hub_a")


class TestLifecycle:
    def test_happy_path(self):
        inst = make_instance()
        inst.initialize()
        inst.start()
        frame = reference_frame([("f", ValueType.INT)], [1], 0, 0)
        assert inst.on_stream_element(frame) is not None
        inst.stop()
        inst.start()  # resume
        inst.stop()
        inst.dispose()
        assert inst.state is LifecycleState.DISPOSED

    @pytest.mark.parametrize(
        "prep, event",
        [
            ([], "start"),
            ([], "stop"),
            ([], "dispose"),
            (["initialize"], "initialize"),
            (["initialize"], "stop"),
            (["initialize"], "dispose"),
            (["initialize", "start"], "initialize"),
            (["initialize", "start"], "start"),
            (["initialize", "start"], "dispose"),
            (["initialize", "start", "stop"], "stop"),
            (["initialize", "start", "stop", "dispose"], "start"),
            (["initialize", "start", "stop", "dispose"], "dispose"),
        ],
    )
    def test_illegal_transitions(self, prep, event):
        inst = make_instance()
        for step in prep:
            getattr(inst, step)()
        before = inst.state
        with pytest.raises(IllegalTransition) as exc:
            if event == "on_stream_element":
                inst.on_stream_element(b"")
            else:
                getattr(inst, event)()
        assert exc.value.from_state is before
        assert exc.value.event == event
        assert inst.state is before  # rejected events leave state unchanged

    def test_stream_element_outside_running(self):
        inst = make_instance()
        frame = reference_frame([("f", ValueType.INT)], [1], 0, 0)
        with pytest.raises(IllegalTransition):
            inst.on_stream_element(frame)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(LIFECYCLE_EVENTS), max_size=30))
    def test_random_sequences_match_reference_table(self, events):
        inst = make_instance()
        frame = reference_frame([("f", ValueType.INT)], [1], 0, 0)
        seq = 0
        for event, (expect_ok, expect_state) in zip(events, lifecycle_oracle(events)):
            try:
                if event == "on_stream_element":
                    inst.on_stream_element(
                        reference_frame([("f", ValueType.INT)], [1], seq, 0)
                    )
                    seq += 1
                else:
                    getattr(inst, event)()
                accepted = True
            except IllegalTransition:
                accepted = False
            assert accepted == expect_ok
            assert inst.state.value == expect_state


class TestDedup:
    def frames(self, seqs):
        return [
            reference_frame([("f", ValueType.INT)], [int(s)], s, 0) for s in seqs
        ]

    def running(self):
        inst = make_instance()
        inst.initialize()
        inst.start()
        return inst

    def test_duplicate_dropped_and_counted(self):
        inst = self.running()
        f0, f0_again = self.frames([3, 3])
        assert inst.on_stream_element(f0) is not None
        assert inst.on_stream_element(f0_again) is None
        assert inst.duplicates_dropped == 1
        assert inst.records_decoded == 1

    def test_out_of_order_within_window_accepted(self):
        inst = self.running()
        for frame in self.frames([0, 1, 2, 5, 4, 3]):
            assert inst.on_stream_element(frame) is not None
        assert inst.records_decoded == 6
        assert inst.last_sequence == 5

    def test_regression_beyond_window_raises(self):
        inst = self.running()
        for frame in self.frames(range(DEDUP_WINDOW + 1)):
            inst.on_stream_element(frame)
        with pytest.raises(SequenceRegression):
            inst.on_stream_element(self.frames([0])[0])
        assert inst.sequence_regressions == 1

    def test_duplicate_within_window_after_many(self):
        inst = self.running()
        for frame in self.frames(range(100)):
            inst.on_stream_element(frame)
        assert inst.on_stream_element(self.frames([99])[0]) is None
        assert inst.on_stream_element(self.frames([100 - DEDUP_WINDOW])[0]) is None
        assert inst.duplicates_dropped == 2

    def test_last_sequence_tracks_max(self):
        inst = self.running()
        for frame in self.frames([0, 2, 1]):
            inst.on_stream_element(frame)
        assert inst.last_sequence == 2
