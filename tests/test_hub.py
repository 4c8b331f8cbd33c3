"""Hub-side behavior: schema synthesis, filtering, frame encoding, and
full sessions against a live server (simulated clock for the grace and
debounce policies, real clock for streaming runs) or against a data port
that never reads.
"""

import hashlib
import math
import random
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubstream.errors import (
    DuplicatePlugin,
    EmptySchema,
    SchemaViolation,
    TypeMismatch,
    UnknownPlugin,
)
import hubstream.hub as hub_module
from hubstream import wire
from hubstream.hub import (
    BACKOFF_BASE_MS,
    FilterEngine,
    FilterMode,
    FilterPolicy,
    GracePolicy,
    KEYFRAME_EVERY,
    PluginDescriptor,
    RealClock,
    SensorHub,
    SensorPlugin,
    SimClock,
    StreamEncoder,
)
from hubstream.sdd import SensorDescriptor, ValueType, fingerprint, parse_musdd, serialize_musdd
from hubstream.server import MiddlewareServer, RecordLog
from hubstream.simsensors import SimKind, SimSpec, make_sim_plugin
from hubstream.wrapper import Strategy, compile_plan, decode_record

from oracles import (
    ReferenceFilter,
    random_row,
    random_schema,
    random_value,
    reference_frame,
    reference_stream_encode,
)


def sim_plugin(name, period_ms=100, kind=SimKind.CONST, mean=20.0, **kw):
    return make_sim_plugin(
        SimSpec(kind=kind, name=name, value_type=ValueType.DOUBLE,
                period_ms=period_ms, mean=mean, **kw)
    )


class TestClocks:
    def test_sim_clock_advances_only_on_demand(self):
        clock = SimClock(start_ms=100)
        assert clock.now_ms() == 100
        clock.advance(250)
        assert clock.now_ms() == 350

    def test_sim_wait_returns_once_time_reached(self):
        clock = SimClock()
        done = threading.Event()

        def waiter():
            clock.wait_until(1000, threading.Event())
            done.set()

        threading.Thread(target=waiter, daemon=True).start()
        time.sleep(0.1)
        assert not done.is_set()
        clock.advance(1000)
        assert done.wait(2)

    def test_wake_event_interrupts_wait(self):
        clock = SimClock()
        wake = threading.Event()
        done = threading.Event()

        def waiter():
            clock.wait_until(10_000, wake)
            done.set()

        threading.Thread(target=waiter, daemon=True).start()
        wake.set()
        assert done.wait(2)

    def test_real_clock_tracks_wall_time(self):
        clock = RealClock()
        t0 = clock.now_ms()
        clock.wait_until(t0 + 30, threading.Event())
        assert clock.now_ms() >= t0 + 30

    def test_real_clock_reads_wall_time(self):
        assert abs(RealClock().now_ms() - time.time() * 1000) < 1000

    def test_wall_clock_stepping_back_never_moves_real_clock_back(self, monkeypatch):
        clock = RealClock()
        before = clock.now_ms()
        wall = time.time
        monkeypatch.setattr(time, "time", lambda: wall() - 3600)
        readings = [clock.now_ms() for _ in range(2000)]
        assert readings[0] >= before
        assert readings == sorted(readings)

    @pytest.mark.parametrize("step_s", [3600, -3600])
    def test_wait_until_ignores_a_wall_clock_step(self, monkeypatch, step_s):
        clock = RealClock()
        target = clock.now_ms() + 60
        wall = time.time
        monkeypatch.setattr(time, "time", lambda: wall() + step_s)
        wake = threading.Event()
        started = time.monotonic()
        waiter = threading.Thread(target=clock.wait_until, args=(target, wake), daemon=True)
        waiter.start()
        waiter.join(timeout=2.0)
        wake.set()  # a clock still waiting on the stepped wall time is released
        waiter.join()
        assert 0.055 <= time.monotonic() - started < 2.0


class TestPluginRegistry:
    def test_synthesized_document_preserves_registration_order(self):
        hub = SensorHub("hub_a", ("127.0.0.1", 1))
        hub.register_plugin(sim_plugin("zeta"))
        hub.register_plugin(sim_plugin("alpha"))
        hub.register_plugin(sim_plugin("mid"))
        doc = hub.synthesize_musdd()
        assert doc.field_names == ("zeta", "alpha", "mid")
        assert doc.hub_id == "hub_a"

    def test_synthesized_document_round_trips(self):
        hub = SensorHub("hub_a", ("127.0.0.1", 1))
        hub.register_plugin(sim_plugin("temp", period_ms=250))
        doc = hub.synthesize_musdd()
        again = parse_musdd(serialize_musdd(doc))
        assert again == doc
        assert fingerprint(again) == fingerprint(doc)

    def test_no_plugins_is_an_empty_schema(self):
        hub = SensorHub("hub_a", ("127.0.0.1", 1))
        with pytest.raises(EmptySchema):
            hub.synthesize_musdd()

    def test_duplicate_plugin_id_rejected(self):
        hub = SensorHub("hub_a", ("127.0.0.1", 1))
        hub.register_plugin(sim_plugin("temp"))
        with pytest.raises(DuplicatePlugin):
            hub.register_plugin(sim_plugin("temp"))

    def test_remove_unknown_plugin_rejected(self):
        hub = SensorHub("hub_a", ("127.0.0.1", 1))
        with pytest.raises(UnknownPlugin):
            hub.remove_plugin("ghost")

    def test_remove_then_synthesize_drops_the_sensor(self):
        hub = SensorHub("hub_a", ("127.0.0.1", 1))
        hub.register_plugin(sim_plugin("one"))
        hub.register_plugin(sim_plugin("two"))
        hub.remove_plugin("one")
        assert hub.synthesize_musdd().field_names == ("two",)


class TestFilterPolicyParse:
    @pytest.mark.parametrize(
        "text,mode,threshold,window",
        [
            ("none", FilterMode.NONE, 0.0, 1),
            ("delta:0.5", FilterMode.DELTA, 0.5, 1),
            ("delta:0", FilterMode.DELTA, 0.0, 1),
            ("avg:10", FilterMode.WINDOW_AVG, 0.0, 10),
        ],
    )
    def test_accepted_forms(self, text, mode, threshold, window):
        policy = FilterPolicy.parse(text)
        assert policy.mode is mode
        if mode is FilterMode.DELTA:
            assert policy.threshold == threshold
        if mode is FilterMode.WINDOW_AVG:
            assert policy.window == window

    @pytest.mark.parametrize("text", ["", "bogus", "delta:", "avg:x", "none:1"])
    def test_rejected_forms(self, text):
        with pytest.raises((SchemaViolation, ValueError)):
            FilterPolicy.parse(text)

    def test_negative_threshold_rejected(self):
        with pytest.raises(SchemaViolation):
            FilterPolicy(mode=FilterMode.DELTA, threshold=-1.0)

    def test_zero_window_rejected(self):
        with pytest.raises(SchemaViolation):
            FilterPolicy(mode=FilterMode.WINDOW_AVG, window=0)


DOUBLE_FIELD = (("x", ValueType.DOUBLE),)


class TestDeltaFilter:
    def test_constant_signal_sends_only_keyframes(self):
        engine = FilterEngine(FilterPolicy.parse("delta:0.5"), DOUBLE_FIELD)
        assert engine.process(0, {"x": 20.0}) == {"x": 20.0}
        for tick in range(1, KEYFRAME_EVERY):
            assert engine.process(tick, {"x": 20.0}) is None
        assert engine.process(KEYFRAME_EVERY, {"x": 20.0}) == {"x": 20.0}

    def test_change_at_threshold_is_suppressed(self):
        engine = FilterEngine(FilterPolicy.parse("delta:0.5"), DOUBLE_FIELD)
        engine.process(0, {"x": 20.0})
        assert engine.process(1, {"x": 20.5}) is None
        assert engine.process(2, {"x": 20.51}) == {"x": 20.51}

    def test_partial_suppression_nulls_the_quiet_field(self):
        layout = (("a", ValueType.DOUBLE), ("b", ValueType.DOUBLE))
        engine = FilterEngine(FilterPolicy.parse("delta:0.5"), layout)
        engine.process(0, {"a": 1.0, "b": 1.0})
        out = engine.process(1, {"a": 9.0, "b": 1.0})
        assert out == {"a": 9.0, "b": None}

    def test_string_change_always_sent(self):
        layout = (("s", ValueType.STRING),)
        engine = FilterEngine(FilterPolicy.parse("delta:0.5"), layout)
        assert engine.process(0, {"s": "up"}) == {"s": "up"}
        assert engine.process(1, {"s": "up"}) is None
        assert engine.process(2, {"s": "down"}) == {"s": "down"}

    def test_absent_sample_does_not_disturb_reference(self):
        engine = FilterEngine(FilterPolicy.parse("delta:0.5"), DOUBLE_FIELD)
        engine.process(0, {"x": 20.0})
        assert engine.process(1, {"x": None}) is None
        # still within threshold of the last SENT value, not of the gap
        assert engine.process(2, {"x": 20.2}) is None

    def test_nan_keyframe_does_not_suppress_later_values(self):
        engine = FilterEngine(FilterPolicy.parse("delta:0.5"), DOUBLE_FIELD)
        outs = [engine.process(t, {"x": v}) for t, v in enumerate([math.nan, 5.0, 9.0, 20.0, 1.0])]
        assert math.isnan(outs[0]["x"])
        assert outs[1:] == [{"x": 5.0}, {"x": 9.0}, {"x": 20.0}, {"x": 1.0}]

    def test_nan_after_a_number_is_sent_and_nan_after_nan_suppressed(self):
        engine = FilterEngine(FilterPolicy.parse("delta:0.5"), DOUBLE_FIELD)
        assert engine.process(0, {"x": 5.0}) == {"x": 5.0}
        out = engine.process(1, {"x": math.nan})
        assert out is not None and math.isnan(out["x"])
        assert engine.process(2, {"x": math.nan}) is None
        assert engine.process(3, {"x": 5.2}) == {"x": 5.2}
        assert engine.process(4, {"x": 5.3}) is None

    def test_repeated_infinity_suppressed_sign_flip_sent(self):
        engine = FilterEngine(FilterPolicy.parse("delta:0.5"), DOUBLE_FIELD)
        engine.process(0, {"x": math.inf})
        assert engine.process(1, {"x": math.inf}) is None
        assert engine.process(2, {"x": -math.inf}) == {"x": -math.inf}

    @given(
        st.lists(
            st.one_of(st.floats(min_value=-100, max_value=100), st.just(math.nan)),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_stays_within_threshold(self, values):
        threshold = 0.5
        engine = FilterEngine(FilterPolicy.parse(f"delta:{threshold}"), DOUBLE_FIELD)
        reconstructed = None
        for tick, value in enumerate(values):
            out = engine.process(tick, {"x": value})
            if out is not None and out["x"] is not None:
                reconstructed = out["x"]
            assert reconstructed is not None
            assert math.isnan(reconstructed) == math.isnan(value)
            if not math.isnan(value):
                assert abs(value - reconstructed) <= threshold


class TestWindowAvgFilter:
    def test_emits_every_nth_tick_with_mean(self):
        engine = FilterEngine(FilterPolicy.parse("avg:3"), DOUBLE_FIELD)
        assert engine.process(0, {"x": 1.0}) is None
        assert engine.process(1, {"x": 2.0}) is None
        assert engine.process(2, {"x": 6.0}) == {"x": 3.0}
        assert engine.process(3, {"x": 10.0}) is None

    def test_absent_samples_excluded_from_mean(self):
        engine = FilterEngine(FilterPolicy.parse("avg:3"), DOUBLE_FIELD)
        engine.process(0, {"x": 1.0})
        engine.process(1, {"x": None})
        assert engine.process(2, {"x": 3.0}) == {"x": 2.0}

    def test_fully_absent_window_emits_null(self):
        engine = FilterEngine(FilterPolicy.parse("avg:2"), DOUBLE_FIELD)
        engine.process(0, {"x": None})
        assert engine.process(1, {"x": None}) == {"x": None}

    def test_string_field_keeps_latest(self):
        layout = (("s", ValueType.STRING),)
        engine = FilterEngine(FilterPolicy.parse("avg:3"), layout)
        engine.process(0, {"s": "a"})
        engine.process(1, {"s": "b"})
        assert engine.process(2, {"s": None}) == {"s": "b"}

    def test_int_field_mean_is_rounded_back_to_int(self):
        layout = (("n", ValueType.INT),)
        engine = FilterEngine(FilterPolicy.parse("avg:2"), layout)
        engine.process(0, {"n": 1})
        out = engine.process(1, {"n": 2})
        assert out == {"n": 2} and isinstance(out["n"], int)

    def test_none_policy_is_identity(self):
        engine = FilterEngine(FilterPolicy(), DOUBLE_FIELD)
        row = {"x": 4.2}
        assert engine.process(0, row) == row
        assert engine.process(7, {"x": None}) == {"x": None}


class TestStreamEncoder:
    def test_single_present_int_layout(self):
        encoder = StreamEncoder((("n", ValueType.INT),))
        frame = encoder.encode(1, 0, {"n": 5})
        body = frame[4:]
        assert frame[:4] == len(body).to_bytes(4, "big")
        assert body == bytes(7) + b"\x01" + bytes(7) + b"\x00" + b"\x01" + bytes(7) + b"\x05"

    def test_null_double_is_one_presence_byte(self):
        encoder = StreamEncoder(DOUBLE_FIELD)
        body = encoder.encode(0, 0, {"x": None})[4:]
        assert body == bytes(16) + b"\x00"

    def test_matches_reference_encoding(self):
        import random

        rng = random.Random(42)
        for _ in range(200):
            schema = random_schema(rng, max_fields=6)
            row = random_row(rng, schema)
            encoder = StreamEncoder(tuple(schema))
            seq, ts = rng.randrange(2**32), rng.randrange(2**40)
            got = encoder.encode(seq, ts, dict(zip((n for n, _ in schema), row)))
            assert got[4:] == reference_frame(schema, row, seq, ts)

    def test_missing_key_treated_as_null(self):
        encoder = StreamEncoder(DOUBLE_FIELD)
        assert encoder.encode(0, 0, {}) == encoder.encode(0, 0, {"x": None})

    @pytest.mark.parametrize(
        "layout,value",
        [
            ((("n", ValueType.INT),), "five"),
            ((("n", ValueType.INT),), True),
            ((("n", ValueType.INT),), 1.5),
            ((("x", ValueType.DOUBLE),), "nope"),
            ((("x", ValueType.DOUBLE),), False),
            ((("s", ValueType.STRING),), 7),
        ],
    )
    def test_wrong_python_type_rejected(self, layout, value):
        encoder = StreamEncoder(layout)
        name = layout[0][0]
        with pytest.raises(TypeMismatch):
            encoder.encode(0, 0, {name: value})

    def test_int_accepted_for_double_field(self):
        encoder = StreamEncoder(DOUBLE_FIELD)
        assert encoder.encode(0, 0, {"x": 3}) == encoder.encode(0, 0, {"x": 3.0})

    def test_encode_decode_loopback_both_strategies(self):
        import random

        from hubstream.sdd import build_musdd

        rng = random.Random(7)
        for _ in range(150):
            schema = random_schema(rng, max_fields=8)
            sensors = [SensorDescriptor(n, t, 100) for n, t in schema]
            doc = build_musdd("hub_a", None, sensors)
            encoder = StreamEncoder(tuple(schema))
            row = random_row(rng, schema)
            body = encoder.encode(3, 999, dict(zip((n for n, _ in schema), row)))[4:]
            for strategy in (Strategy.SPSW, Strategy.DGCW):
                record = decode_record(compile_plan(doc, strategy), body)
                assert record.sequence == 3 and record.timestamp_ms == 999
                for (name, _), sent, got in zip(schema, row, record.values):
                    assert got == (name, sent)


def _drift_row(rng, layout, previous):
    """A row that often repeats or barely moves the previous value, so the
    DELTA filter both sends and suppresses."""
    row = {}
    for name, vtype in layout:
        roll = rng.random()
        last = previous.get(name)
        if roll < 0.15:
            continue  # missing key
        if roll < 0.3:
            row[name] = None
        elif last is not None and roll < 0.55:
            row[name] = last
        elif last is not None and vtype is not ValueType.STRING and roll < 0.8:
            step = rng.choice([0.2, 0.5, 0.7, 3]) * rng.choice([-1, 1])
            row[name] = round(last + step) if vtype is ValueType.INT else last + step
        else:
            row[name] = random_value(rng, vtype)
        if row[name] is not None:
            previous[name] = row[name]
    return row


class TestFilterParity:
    """The table-driven filters against a field-by-field copy of the
    original FilterEngine, on rows without NaN (where both must agree)."""

    @pytest.mark.parametrize(
        "policy,mode,kw",
        [
            ("none", "none", {}),
            ("delta:0.5", "delta", {"threshold": 0.5}),
            ("delta:0", "delta", {"threshold": 0.0}),
            ("delta:2", "delta", {"threshold": 2.0}),
            ("avg:1", "avg", {"window": 1}),
            ("avg:4", "avg", {"window": 4}),
        ],
    )
    def test_matches_the_field_by_field_filter(self, policy, mode, kw):
        rng = random.Random(f"filter-{policy}")
        for _ in range(40):
            layout = tuple(random_schema(rng, max_fields=8))
            engine = FilterEngine(FilterPolicy.parse(policy), layout)
            oracle = ReferenceFilter(mode, layout, **kw)
            previous = {}
            for tick in range(rng.choice([5, 150, 250])):
                row = _drift_row(rng, layout, previous)
                assert repr(engine.process(tick, dict(row))) == repr(oracle.process(tick, dict(row)))


_MISSING = object()


def _value_strategy(vtype):
    odd = st.one_of(st.booleans(), st.text(max_size=3), st.just(b"x"), st.just([1]))
    if vtype is ValueType.INT:
        good = st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(-(2**70), 2**70))
        odd = st.one_of(odd, st.floats())
    elif vtype is ValueType.DOUBLE:
        good = st.one_of(st.floats(), st.integers(-(2**70), 2**70), st.just(10**400))
    else:
        good = st.one_of(
            st.text(),
            st.text(st.characters(min_codepoint=0x80)),
            st.text(st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF), min_size=1),
        )
        odd = st.one_of(odd, st.integers(), st.floats())
    return st.one_of(st.none(), st.just(_MISSING), good, odd)


def _clean_value_strategy(vtype):
    if vtype is ValueType.INT:
        return st.integers(-(2**63), 2**63 - 1)
    if vtype is ValueType.DOUBLE:
        return st.floats()
    return st.text()


@st.composite
def layouts_and_rows(draw):
    fixed_only = draw(st.booleans())
    kinds = [ValueType.INT, ValueType.DOUBLE] if fixed_only else list(ValueType)
    types = draw(st.lists(st.sampled_from(kinds), max_size=10))
    layout = tuple((f"f{i}", vtype) for i, vtype in enumerate(types))
    values = _clean_value_strategy if draw(st.booleans()) else _value_strategy
    row = {}
    for name, vtype in layout:
        value = draw(values(vtype))
        if value is not _MISSING:
            row[name] = value
    return layout, row


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # the oracle and the encoder must fail alike
        return ("raised", type(exc), str(exc))


SEQUENCES = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([-1, 2**64]))


class TestEncoderParity:
    """The generated encoder against a field-by-field copy of the original
    loop encoder: identical bytes, or the same exception and message."""

    @given(layouts_and_rows(), SEQUENCES, SEQUENCES)
    @settings(max_examples=600, deadline=None)
    def test_same_bytes_or_same_error(self, layout_row, sequence, timestamp_ms):
        layout, row = layout_row
        encoder = StreamEncoder(layout)
        assert _outcome(lambda: encoder.encode(sequence, timestamp_ms, row)) == _outcome(
            lambda: reference_stream_encode(layout, sequence, timestamp_ms, row)
        )

    def test_all_present_fixed_width_row(self):
        layout = (("a", ValueType.INT), ("b", ValueType.DOUBLE), ("c", ValueType.INT))
        row = {"a": -(2**63), "b": math.nan, "c": 2**63 - 1}
        assert StreamEncoder(layout).encode(7, 8, row) == reference_stream_encode(layout, 7, 8, row)

    def test_out_of_range_field_reported_before_bad_sequence(self):
        layout = (("a", ValueType.DOUBLE), ("b", ValueType.INT))
        row = {"a": 1.0, "b": 2**63}
        assert _outcome(lambda: StreamEncoder(layout).encode(-1, 0, row)) == _outcome(
            lambda: reference_stream_encode(layout, -1, 0, row)
        )

    def test_type_mismatch_names_the_first_bad_field(self):
        layout = (("a", ValueType.INT), ("b", ValueType.DOUBLE), ("c", ValueType.STRING))
        with pytest.raises(TypeMismatch, match=r"^field 'b' wants double, got str$"):
            StreamEncoder(layout).encode(0, 0, {"a": 1, "b": "x", "c": 5})

    def test_hostile_field_names_stay_data(self, monkeypatch, tmp_path):
        import builtins

        from hubstream import hub as hub_module

        marker = tmp_path / "ran"
        names = [
            "'); import os; ('",
            f"'); open({str(marker)!r}, 'w'); ('",
            'quote"d',
            "new\nline",
            "__import__('os').system('true')",
            "K0",
            "row",
        ]
        sources = []

        def recording_exec(source, namespace):
            sources.append(source)
            return builtins.exec(source, namespace)

        monkeypatch.setattr(hub_module, "exec", recording_exec, raising=False)
        for vtypes in ([ValueType.INT] * 7, [ValueType.DOUBLE, ValueType.STRING] * 4):
            layout = tuple(zip(names, vtypes))
            encoder = StreamEncoder(layout)
            row = {name: (3 if vtype is ValueType.INT else 2.5 if vtype is ValueType.DOUBLE else name)
                   for name, vtype in layout}
            assert encoder.encode(1, 2, row) == reference_stream_encode(layout, 1, 2, row)
            for name, vtype in layout:
                bad = dict(row, **{name: object()})
                assert _outcome(lambda: encoder.encode(1, 2, bad)) == _outcome(
                    lambda: reference_stream_encode(layout, 1, 2, bad)
                )
        assert len(sources) == 2
        for source in sources:
            for name in names[:5]:
                assert name not in source and repr(name) not in source
        assert not marker.exists()


# sha256 over the frames of a sample -> filter -> encode pipeline on
# simulated sensors, taken from the original field-by-field hub code.
PIPELINE_DIGESTS = {
    "none": "16386d6d4ee3c015d2bad70257a96f7c4ca344906d4a570d6d0fd945ceb510e3",
    "delta:0.5": "3d9fd32d3ee121c1c753e9e294b94b61a19b5dcd85ba66a6e5b334c0c7ce6e2f",
    "avg:3": "994a3f05877fb24ec209b33be607f0c29524d8baffe9412ebb873a2ba70f9463",
}


def pipeline_digest(policy: str, ticks: int = 3000) -> str:
    specs = [
        SimSpec(kind=SimKind.RANDOM_WALK, name="w", value_type=ValueType.DOUBLE,
                period_ms=100, seed=3, mean=10.0, step=0.6),
        SimSpec(kind=SimKind.RANDOM_WALK, name="n", value_type=ValueType.INT,
                period_ms=200, seed=4, mean=-7.0, step=1.5),
        SimSpec(kind=SimKind.SINE, name="s", value_type=ValueType.DOUBLE,
                period_ms=100, mean=1.0, amplitude=4.0, step=0.05),
        SimSpec(kind=SimKind.STRING_TICKER, name="t", value_type=ValueType.STRING,
                period_ms=700, prefix="p\u00e9"),
        SimSpec(kind=SimKind.CONST, name="c", value_type=ValueType.INT, period_ms=100, mean=4.4),
    ]
    plugins = [make_sim_plugin(spec) for spec in specs]
    layout = tuple((spec.name, spec.value_type) for spec in specs)
    engine = FilterEngine(FilterPolicy.parse(policy), layout)
    encoder = StreamEncoder(layout)
    digest = hashlib.sha256()
    sequence = 0
    for tick in range(ticks):
        now = tick * 100
        row = {spec.name: plugin.sample() if now % spec.period_ms == 0 else None
               for spec, plugin in zip(specs, plugins)}
        out = engine.process(tick, row)
        if out is not None:
            digest.update(encoder.encode(sequence, 1_700_000_000_000 + now, out))
            sequence += 1
    return digest.hexdigest()


class TestPipelineFrozen:
    @pytest.mark.parametrize("policy", sorted(PIPELINE_DIGESTS))
    def test_frames_identical_to_the_original_hub_code(self, policy):
        assert pipeline_digest(policy) == PIPELINE_DIGESTS[policy]


# --- full sessions against a live server --------------------------------------


@pytest.fixture
def server(tmp_path):
    srv = MiddlewareServer(
        tmp_path, Strategy.DGCW, control_port=0, port_range=(17200, 17260)
    ).start()
    yield srv
    srv.stop()


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def drive(clock, total_ms, step_ms=500, settle_s=0.01):
    """Advance a simulated clock in steps, yielding real time to the hub
    threads between steps."""
    for _ in range(total_ms // step_ms):
        clock.advance(step_ms)
        time.sleep(settle_s)


class TestLiveSessions:
    def test_streams_frames_and_counts_balance(self, server):
        hub = SensorHub("live_hub", ("127.0.0.1", server.control_port))
        for i in range(4):
            hub.register_plugin(sim_plugin(f"sig_{i}", period_ms=50, kind=SimKind.SINE,
                                           seed=i, amplitude=5.0))
        hub.start()
        try:
            assert wait_until(lambda: hub.frames_sent >= 10)
        finally:
            hub.stop()
        session = server.core.get_session("live_hub")
        assert wait_until(lambda: session.frames_received == hub.frames_sent)
        assert session.frames_malformed == 0
        assert session.records_decoded == hub.frames_enqueued - hub.queue_dropped
        assert hub.registration_count == 1

    def test_recovers_when_server_comes_up_late(self, tmp_path):
        placeholder = socket.create_server(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        hub = SensorHub("late_hub", ("127.0.0.1", port))
        hub.register_plugin(sim_plugin("temp", period_ms=50))
        hub.start()
        time.sleep(0.3)
        assert hub.registration_count == 0
        srv = MiddlewareServer(
            tmp_path, Strategy.DGCW, control_port=port, port_range=(17270, 17290)
        ).start()
        try:
            assert wait_until(lambda: hub.registration_count == 1)
        finally:
            hub.stop()
            srv.stop()

    def test_plugin_add_triggers_one_debounced_reregistration(self, server):
        clock = SimClock()
        hub = SensorHub("debounce_hub", ("127.0.0.1", server.control_port), clock=clock)
        hub.register_plugin(sim_plugin("first", period_ms=1000))
        hub.start()
        try:
            assert wait_until(lambda: hub.registration_count == 1)
            hub.register_plugin(sim_plugin("second", period_ms=1000))
            hub.register_plugin(sim_plugin("third", period_ms=1000))
            drive(clock, 1500)
            assert hub.registration_count == 1  # still inside the debounce window
            drive(clock, 3000)
            assert wait_until(lambda: hub.registration_count == 2)
            drive(clock, 4000)
            assert hub.registration_count == 2  # burst coalesced into one
        finally:
            hub.stop()
        session = server.core.get_session("debounce_hub")
        assert [f.name for f in session.instance.plan.field_layout] == [
            "first",
            "second",
            "third",
        ]

    def test_absence_shorter_than_grace_keeps_sensor(self, server):
        clock = SimClock()
        hub = SensorHub(
            "grace_hub",
            ("127.0.0.1", server.control_port),
            grace_policy=GracePolicy(null_grace_ms=30_000),
            clock=clock,
        )
        hub.register_plugin(sim_plugin("steady", period_ms=1000))
        hub.register_plugin(
            make_sim_plugin(
                SimSpec(
                    kind=SimKind.FLAKY,
                    name="flaky",
                    value_type=ValueType.DOUBLE,
                    period_ms=1000,
                    inner=SimKind.CONST,
                    mean=5.0,
                    dropout_windows=((2000, 7000),),
                ),
                clock=clock,
            )
        )
        hub.start()
        try:
            assert wait_until(lambda: hub.registration_count == 1)
            drive(clock, 60_000)
        finally:
            hub.stop()
        assert hub.reregistrations == 0
        assert [p.plugin_id for p in hub.plugins()] == ["steady", "flaky"]

    def test_absence_beyond_grace_drops_sensor_once(self, server):
        clock = SimClock()
        hub = SensorHub(
            "grace_hub",
            ("127.0.0.1", server.control_port),
            grace_policy=GracePolicy(null_grace_ms=30_000),
            clock=clock,
        )
        hub.register_plugin(sim_plugin("steady", period_ms=1000))
        hub.register_plugin(
            make_sim_plugin(
                SimSpec(
                    kind=SimKind.FLAKY,
                    name="flaky",
                    value_type=ValueType.DOUBLE,
                    period_ms=1000,
                    inner=SimKind.CONST,
                    mean=5.0,
                    dropout_windows=((2000, 37_000),),
                ),
                clock=clock,
            )
        )
        hub.start()
        try:
            assert wait_until(lambda: hub.registration_count == 1)
            drive(clock, 80_000)
            assert wait_until(lambda: hub.registration_count == 2)
        finally:
            hub.stop()
        assert hub.reregistrations == 1
        assert [p.plugin_id for p in hub.plugins()] == ["steady"]
        session = server.core.get_session("grace_hub")
        assert [f.name for f in session.instance.plan.field_layout] == ["steady"]

    def test_delta_filtered_stream_reaches_server_sparse(self, server):
        hub = SensorHub(
            "delta_hub",
            ("127.0.0.1", server.control_port),
            filter_policy=FilterPolicy.parse("delta:0.5"),
        )
        hub.register_plugin(sim_plugin("flat", period_ms=20))
        hub.start()
        try:
            time.sleep(1.0)
        finally:
            hub.stop()
        session = server.core.get_session("delta_hub")
        # ~50 sample ticks, constant signal: only the tick-0 keyframe goes out
        assert wait_until(lambda: session.frames_received == hub.frames_sent)
        assert 1 <= session.records_decoded <= 3

    def test_foreign_assign_layout_is_refused_and_retried(self):
        """A server whose ASSIGN carries a layout other than the registered
        schema gets no stream; the hub backs off and re-registers."""
        control = socket.create_server(("127.0.0.1", 0))
        control.settimeout(0.05)
        data = socket.create_server(("127.0.0.1", 0))
        foreign = [("temp", ValueType.DOUBLE), ("intruder", ValueType.INT)]
        reregister_flags = []
        done = threading.Event()

        def serve():
            while not done.is_set():
                try:
                    conn, _ = control.accept()
                except socket.timeout:
                    continue
                with conn:
                    conn.settimeout(5)
                    _, payload = wire.read_message(conn)
                    reregister_flags.append(wire.unpack_register(payload)[1])
                    wire.write_message(conn, wire.OP_ASSIGN, wire.pack_assign(
                        data.getsockname()[1], b"t" * wire.TOKEN_LEN, "dgcw_foreign", foreign))

        fake = threading.Thread(target=serve)
        fake.start()
        clock = SimClock()
        hub = SensorHub("picky_hub", ("127.0.0.1", control.getsockname()[1]), clock=clock)
        hub.register_plugin(sim_plugin("temp", period_ms=50))
        hub.start()
        try:
            assert wait_until(lambda: len(reregister_flags) == 1)
            drive(clock, 4 * BACKOFF_BASE_MS, step_ms=BACKOFF_BASE_MS // 2)
            assert wait_until(lambda: len(reregister_flags) >= 2)
        finally:
            hub.stop()
            done.set()
            fake.join(timeout=5)
            control.close()
        assert not fake.is_alive()
        assert reregister_flags[:2] == [False, True]
        assert hub.registration_count == 0
        assert hub.frames_enqueued == 0
        data.settimeout(0.1)
        with pytest.raises(socket.timeout):
            data.accept()  # the hub never opened the data port
        data.close()

    def test_replugged_sensor_streams_in_the_assigned_order(self, server):
        """A sensor removed and added again comes last in the schema, but the
        server's cached plan keeps the first order of the same fields: the
        hub takes that order and streams on."""
        clock = SimClock()
        hub = SensorHub("replug_hub", ("127.0.0.1", server.control_port), clock=clock)
        hub.register_plugin(sim_plugin("a", period_ms=100))
        hub.register_plugin(sim_plugin("b", period_ms=100))
        hub.start()
        try:
            assert wait_until(lambda: hub.registration_count == 1)
            hub.remove_plugin("a")
            hub.register_plugin(sim_plugin("a", period_ms=100, mean=5.0))
            drive(clock, 3000)
            assert wait_until(lambda: hub.registration_count == 2)
            session = server.core.get_session("replug_hub")
            drive(clock, 1000, step_ms=100)
            assert wait_until(lambda: session.records_decoded > 0)
        finally:
            hub.stop()
        assert [p.plugin_id for p in hub.plugins()] == ["b", "a"]
        assert session.cache_hit
        assert [name for name, _ in session.instance.plan.field_layout] == ["a", "b"]
        assert dict(session.window_buffer[-1].values) == {"a": 5.0, "b": 20.0}

    def test_a_streaming_hub_adds_exactly_one_thread(self, server):
        before = set(threading.enumerate())
        hub = SensorHub("one_thread_hub", ("127.0.0.1", server.control_port))
        hub.register_plugin(sim_plugin("temp", period_ms=10))
        hub.start()
        try:
            assert wait_until(lambda: hub.frames_sent >= 5)
            added = set(threading.enumerate()) - before
        finally:
            hub.stop()
        assert [t.name for t in added] == ["hub-one_thread_hub"]

    def test_record_log_replays_the_hubs_frames_in_sequence_order(self, server, tmp_path):
        hub = SensorHub("order_hub", ("127.0.0.1", server.control_port))
        hub.register_plugin(sim_plugin("wave", period_ms=2, kind=SimKind.SINE, amplitude=5.0))
        hub.start()
        try:
            assert wait_until(lambda: hub.frames_sent >= 200)
        finally:
            hub.stop()
        session = server.core.get_session("order_hub")
        assert wait_until(lambda: session.frames_received == hub.frames_sent)
        replayed = RecordLog.replay(tmp_path / "data" / "order_hub.log")
        plan = session.instance.plan
        records = [decode_record(plan, body) for _, body in replayed]
        assert [record.sequence for record in records] == list(range(hub.frames_sent))
        assert all(isinstance(value, float) for record in records for _, value in record.values)
        assert hub.queue_dropped == 0


class _BlobPlugin(SensorPlugin):
    """A string sensor sampled every millisecond with 64 KiB values, so a
    data connection that is never read fills within a second."""

    def describe(self) -> PluginDescriptor:
        return PluginDescriptor("blob", SensorDescriptor("blob", ValueType.STRING, 1))

    def sample(self):
        return "x" * 65_536


@pytest.fixture
def deaf_server():
    """A control port that assigns each registered schema, and a data port
    that accepts connections and never reads from them."""
    control = socket.create_server(("127.0.0.1", 0))
    control.settimeout(0.05)
    data = socket.create_server(("127.0.0.1", 0))
    data.settimeout(0.05)
    held = []
    done = threading.Event()

    def serve():
        while not done.is_set():
            try:
                held.append(data.accept()[0])
            except socket.timeout:
                pass
            try:
                conn, _ = control.accept()
            except socket.timeout:
                continue
            with conn:
                conn.settimeout(5)
                _, payload = wire.read_message(conn)
                doc = parse_musdd(wire.unpack_register(payload)[0])
                layout = [(s.name, s.value_type) for s in doc.sensors]
                wire.write_message(conn, wire.OP_ASSIGN, wire.pack_assign(
                    data.getsockname()[1], b"t" * wire.TOKEN_LEN, "dgcw_deaf", layout))

    fake = threading.Thread(target=serve)
    fake.start()
    yield ("127.0.0.1", control.getsockname()[1])
    done.set()
    fake.join(timeout=5)
    assert not fake.is_alive()
    for sock in held + [data, control]:
        sock.close()


def _hub_threads(hub):
    return [t for t in threading.enumerate() if t.name == f"hub-{hub.hub_id}"]


class TestStalledPeer:
    def test_full_queue_drops_oldest_while_sampling_goes_on(self, deaf_server, monkeypatch):
        monkeypatch.setattr(hub_module, "QUEUE_CAPACITY", 4)
        monkeypatch.setattr(hub_module, "STALL_S", 3.0)  # bounds stop()'s flush
        hub = SensorHub("deaf_hub", deaf_server)
        hub.register_plugin(_BlobPlugin())
        hub.start()
        try:
            assert wait_until(lambda: hub.queue_dropped > 0)
            dropped, enqueued = hub.queue_dropped, hub.frames_enqueued
            assert wait_until(
                lambda: hub.queue_dropped > dropped and hub.frames_enqueued > enqueued
            )
            assert hub.registration_count == 1  # the same session, still running
        finally:
            hub.stop()
        assert not _hub_threads(hub)

    def test_stop_flushes_within_the_sessions_stall_deadline(self, deaf_server, monkeypatch):
        monkeypatch.setattr(hub_module, "QUEUE_CAPACITY", 4)
        monkeypatch.setattr(hub_module, "STALL_S", 4.0)
        hub = SensorHub("deaf_hub", deaf_server)
        hub.register_plugin(_BlobPlugin())
        hub.start()
        try:
            assert wait_until(lambda: hub.queue_dropped > 0)  # the connection is full
            time.sleep(1.5)  # the kernel may take one more burst in the first ~0.3 s
        finally:
            started = time.monotonic()
            hub.stop()
            elapsed = time.monotonic() - started
        assert not _hub_threads(hub)
        # the stall began >1 s before stop(); a flush with a fresh deadline takes 4 s
        assert elapsed < 3.6
        assert hub.registration_count == 1
