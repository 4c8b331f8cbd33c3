"""Simulated sensor kinds, seed determinism, dropout schedules, manifest
parsing, and bundle packing."""

import hashlib

import pytest

from hubstream.errors import BadSpec
from hubstream.hub import SimClock
from hubstream.sdd import ValueType
from hubstream.simsensors import (
    BUNDLE_MAGIC,
    SimKind,
    SimSpec,
    make_sim_plugin,
    manifest_line,
    parse_manifest,
    parse_manifest_line,
    serialize_plugin_bundle,
)


def spec(kind=SimKind.CONST, name="temp", vtype=ValueType.DOUBLE, period=100, **kw):
    return SimSpec(kind=kind, name=name, value_type=vtype, period_ms=period, **kw)


class TestKinds:
    def test_const_always_returns_mean(self):
        plugin = make_sim_plugin(spec(mean=20.0))
        assert [plugin.sample() for _ in range(50)] == [20.0] * 50

    def test_const_int_coerces(self):
        plugin = make_sim_plugin(spec(vtype=ValueType.INT, mean=20.6))
        value = plugin.sample()
        assert value == 21 and isinstance(value, int)

    def test_sine_bounded_by_amplitude(self):
        plugin = make_sim_plugin(spec(kind=SimKind.SINE, mean=10.0, amplitude=3.0))
        for _ in range(1000):
            assert 7.0 <= plugin.sample() <= 13.0

    def test_sine_actually_oscillates(self):
        plugin = make_sim_plugin(spec(kind=SimKind.SINE, mean=0.0, amplitude=1.0, step=0.5))
        values = {round(plugin.sample(), 6) for _ in range(100)}
        assert len(values) > 10

    def test_walk_moves_from_mean(self):
        plugin = make_sim_plugin(spec(kind=SimKind.RANDOM_WALK, mean=100.0, step=1.0, seed=3))
        first = plugin.sample()
        assert first == 100.0
        later = [plugin.sample() for _ in range(100)]
        assert any(v != 100.0 for v in later)

    def test_ticker_counts_up(self):
        plugin = make_sim_plugin(
            spec(kind=SimKind.STRING_TICKER, vtype=ValueType.STRING, prefix="beat")
        )
        assert [plugin.sample() for _ in range(3)] == ["beat-0", "beat-1", "beat-2"]

    def test_describe_carries_the_declared_shape(self):
        plugin = make_sim_plugin(spec(name="hum", period=250, unit="percent"))
        descriptor = plugin.describe()
        assert descriptor.plugin_id == "hum"
        assert descriptor.transport_label == "sim"
        sensor = descriptor.sensor
        assert (sensor.name, sensor.value_type, sensor.sample_period_ms, sensor.unit) == (
            "hum",
            ValueType.DOUBLE,
            250,
            "percent",
        )


class TestDeterminism:
    @pytest.mark.parametrize("kind", [SimKind.CONST, SimKind.SINE, SimKind.RANDOM_WALK])
    def test_same_seed_same_sequence(self, kind):
        s = spec(kind=kind, seed=99, mean=5.0, amplitude=2.0, step=0.3)
        a, b = make_sim_plugin(s), make_sim_plugin(s)
        assert [a.sample() for _ in range(1000)] == [b.sample() for _ in range(1000)]

    def test_different_seed_diverges_for_walk(self):
        a = make_sim_plugin(spec(kind=SimKind.RANDOM_WALK, seed=1, step=1.0))
        b = make_sim_plugin(spec(kind=SimKind.RANDOM_WALK, seed=2, step=1.0))
        seq_a = [a.sample() for _ in range(20)]
        seq_b = [b.sample() for _ in range(20)]
        assert seq_a != seq_b


# sha256 over the first 5,000 samples of each kind (float.hex of floats,
# repr of everything else), taken from the original plugin code.
FROZEN_SAMPLES = {
    "const_double": (
        dict(kind=SimKind.CONST, vtype=ValueType.DOUBLE, mean=20.6),
        "84d93a54540eb813a672a0e82305c36f7803146d420cc9977ea9a0a9a3c75d84",
    ),
    "const_int": (
        dict(kind=SimKind.CONST, vtype=ValueType.INT, mean=20.6),
        "966ad93a2df88f2a784e1d82b32f4f7d2df11e239c2df2104a00774a2a378195",
    ),
    "sine_double": (
        dict(kind=SimKind.SINE, vtype=ValueType.DOUBLE, mean=12.25, amplitude=3.5, step=0.37),
        "7b1196fbe412b4a5f3a7ee606106d91ac31b56fc6a0796edf9ffa958365751af",
    ),
    "sine_int": (
        dict(kind=SimKind.SINE, vtype=ValueType.INT, mean=-40.5, amplitude=9.0, step=0.11),
        "6bd9a83d1d93d1e858554e4860301f520027d30dcf078c52878a560654ce8222",
    ),
    "walk_double": (
        dict(kind=SimKind.RANDOM_WALK, vtype=ValueType.DOUBLE, seed=7, mean=1013.0, step=0.5),
        "da35a658ff5925837d871a525de3c406ff1b3d85b978a029d8b50ef7a0d49af5",
    ),
    "walk_int": (
        dict(kind=SimKind.RANDOM_WALK, vtype=ValueType.INT, seed=11, mean=-3.0, step=2.0),
        "3e9df780fa0a5656b1ee03fa0f9711eb92adf4de72a12edde2970a65cfd1ee92",
    ),
    "ticker": (
        dict(kind=SimKind.STRING_TICKER, vtype=ValueType.STRING, prefix="beat"),
        "a6fe9010315bef18b2a4e93c4215ed6bc6f73a723e1d93dc70f3f953416ce45a",
    ),
    "flaky_walk": (
        dict(kind=SimKind.FLAKY, inner=SimKind.RANDOM_WALK, vtype=ValueType.DOUBLE, seed=5,
             mean=300.0, step=1.5, dropout_windows=((5000, 40000), (100000, 100100))),
        "362f2babac24ee36de0718a5ebe3de80b1f7eda9d3fe5a89dbb2f4c574ec6be1",
    ),
}


class TestFrozenSamples:
    @pytest.mark.parametrize("case", sorted(FROZEN_SAMPLES))
    def test_first_5000_samples_unchanged(self, case):
        params, expected = FROZEN_SAMPLES[case]
        clock = SimClock()
        plugin = make_sim_plugin(spec(name="s", **params), clock)
        digest = hashlib.sha256()
        for _ in range(5000):
            value = plugin.sample()
            token = value.hex() if isinstance(value, float) else repr(value)
            digest.update(token.encode() + b"\n")
            clock.advance(100)
        assert digest.hexdigest() == expected


class TestFlaky:
    def flaky(self, clock, windows, inner=SimKind.CONST):
        return make_sim_plugin(
            spec(kind=SimKind.FLAKY, inner=inner, mean=5.0, dropout_windows=windows),
            clock=clock,
        )

    def test_absent_exactly_inside_half_open_window(self):
        clock = SimClock()
        plugin = self.flaky(clock, ((10_000, 15_000),))
        assert plugin.sample() == 5.0  # anchor at t=0
        clock.advance(9_999)
        assert plugin.sample() == 5.0
        clock.advance(1)  # t=10000, window opens
        assert plugin.sample() is None
        clock.advance(4_999)  # t=14999, last absent instant
        assert plugin.sample() is None
        clock.advance(1)  # t=15000, half-open end excluded
        assert plugin.sample() == 5.0

    def test_windows_anchor_at_first_sample(self):
        clock = SimClock(start_ms=50_000)
        plugin = self.flaky(clock, ((1_000, 2_000),))
        assert plugin.sample() == 5.0  # anchor at 50s, not process start
        clock.advance(1_500)
        assert plugin.sample() is None

    def test_inner_sequence_advances_through_dropouts(self):
        clock = SimClock()
        flaky = self.flaky(clock, ((0, 1_000),), inner=SimKind.RANDOM_WALK)
        twin = make_sim_plugin(spec(kind=SimKind.RANDOM_WALK, mean=5.0))
        assert flaky.sample() is None
        twin.sample()
        clock.advance(1_000)
        assert flaky.sample() == twin.sample()

    def test_multiple_windows(self):
        clock = SimClock()
        plugin = self.flaky(clock, ((1_000, 2_000), (3_000, 4_000)))
        plugin.sample()
        for offset, expect_absent in [
            (1_000, True),
            (2_000, False),
            (3_000, True),
            (4_000, False),
        ]:
            while clock.now_ms() < offset:
                clock.advance(500)
            assert (plugin.sample() is None) == expect_absent


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(name="Bad-Name"),
            dict(period=0),
            dict(period=-5),
            dict(kind=SimKind.STRING_TICKER),  # double type for a string kind
            dict(kind=SimKind.CONST, vtype=ValueType.STRING),
            dict(kind=SimKind.SINE, amplitude=-1.0),
            dict(kind=SimKind.FLAKY),  # no inner
            dict(kind=SimKind.FLAKY, inner=SimKind.FLAKY),
            dict(kind=SimKind.FLAKY, inner=SimKind.CONST, dropout_windows=((5, 5),)),
            dict(kind=SimKind.FLAKY, inner=SimKind.CONST, dropout_windows=((-1, 5),)),
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(BadSpec):
            make_sim_plugin(spec(**bad))

    def test_unknown_kind_keyword(self):
        with pytest.raises(BadSpec):
            SimKind.from_keyword("quantum")


class TestManifest:
    FULL = """\
# deployment manifest
const  name=temp     type=double period_ms=100 mean=20.0 unit=celsius

sine   name=hum      period_ms=200 mean=50 amplitude=10 seed=3
walk   name=pressure period_ms=100 mean=1013 step=0.5 seed=7
ticker name=status   period_ms=1000 prefix=ok
flaky  name=light    period_ms=100 inner=const mean=300 dropout=5000-40000,60000-65000
"""

    def test_full_manifest_parses(self):
        specs = parse_manifest(self.FULL)
        assert [s.name for s in specs] == ["temp", "hum", "pressure", "status", "light"]
        assert specs[0].unit == "celsius"
        assert specs[1].value_type is ValueType.DOUBLE  # inferred
        assert specs[3].value_type is ValueType.STRING  # inferred
        assert specs[4].kind is SimKind.FLAKY
        assert specs[4].dropout_windows == ((5000, 40000), (60000, 65000))

    def test_every_parsed_spec_builds_a_plugin(self):
        for s in parse_manifest(self.FULL):
            make_sim_plugin(s).describe()

    @pytest.mark.parametrize(
        "line,complaint",
        [
            ("quantum name=x period_ms=1", "unknown plugin kind"),
            ("const name=x", "period_ms"),
            ("const period_ms=100", "name"),
            ("const name=x period_ms=abc", "integer"),
            ("const name=x period_ms=100 volume=11", "unknown manifest key"),
            ("const name=x period_ms=100 mean", "key=value"),
            ("flaky name=x period_ms=100 inner=const dropout=99", "START-END"),
            ("const name=x period_ms=100 type=bool", "bad type"),
        ],
    )
    def test_bad_lines_rejected(self, line, complaint):
        with pytest.raises(BadSpec, match=complaint):
            parse_manifest_line(line)

    def test_duplicate_names_rejected_with_line_number(self):
        text = "const name=x period_ms=1\nconst name=x period_ms=2\n"
        with pytest.raises(BadSpec, match="line 2"):
            parse_manifest(text)

    def test_error_carries_line_number(self):
        text = "# fine\nconst name=ok period_ms=1\nbogus name=x period_ms=1\n"
        with pytest.raises(BadSpec, match="line 3"):
            parse_manifest(text)

    def test_blank_manifest_is_empty(self):
        assert parse_manifest("\n# nothing here\n\n") == []

    @pytest.mark.parametrize(
        "original",
        [
            spec(mean=20.0, unit="celsius"),
            spec(kind=SimKind.SINE, name="hum", mean=50.0, amplitude=10.0, step=0.2, seed=3),
            spec(kind=SimKind.RANDOM_WALK, name="p", mean=1013.0, step=0.5, seed=7),
            spec(kind=SimKind.STRING_TICKER, name="st", vtype=ValueType.STRING, prefix="ok"),
            spec(
                kind=SimKind.FLAKY,
                name="light",
                inner=SimKind.CONST,
                mean=300.0,
                dropout_windows=((5000, 40000),),
            ),
        ],
    )
    def test_manifest_line_round_trips(self, original):
        assert parse_manifest_line(manifest_line(original)) == original


class TestBundle:
    def specs(self, n, kind=SimKind.SINE):
        return [
            spec(kind=kind, name=f"sensor_{i:03d}", seed=i, mean=20.0, amplitude=5.0)
            for i in range(n)
        ]

    def test_magic_prefix(self):
        assert serialize_plugin_bundle(self.specs(1)).startswith(BUNDLE_MAGIC)

    def test_growth_is_affine_for_uniform_plugins(self):
        sizes = [len(serialize_plugin_bundle(self.specs(n))) for n in range(1, 8)]
        deltas = {b - a for a, b in zip(sizes, sizes[1:])}
        assert len(deltas) == 1

    def test_empty_bundle_is_header_only(self):
        empty = len(serialize_plugin_bundle([]))
        assert 0 < empty < len(serialize_plugin_bundle(self.specs(1)))

    def test_library_never_beats_standalone_packaging(self):
        plugins = self.specs(15)
        one_library = len(serialize_plugin_bundle(plugins))
        three_libraries = sum(
            len(serialize_plugin_bundle(plugins[i : i + 5])) for i in (0, 5, 10)
        )
        standalone = sum(len(serialize_plugin_bundle([p])) for p in plugins)
        assert one_library <= three_libraries <= standalone

    def test_mixed_kinds_pay_kind_table_once_each(self):
        mixed = [
            spec(kind=SimKind.CONST, name="a"),
            spec(kind=SimKind.CONST, name="b"),
        ]
        single = serialize_plugin_bundle(mixed[:1])
        double = serialize_plugin_bundle(mixed)
        # second const plugin adds an entry but no second kind-table row
        assert len(double) - len(single) < len(single)
