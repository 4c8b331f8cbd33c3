"""Document build, serialization round-trip, strict parsing, fingerprints."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from hubstream.errors import (
    BadIdentifier,
    DuplicateField,
    EmptySchema,
    MalformedDocument,
    SchemaViolation,
    UnknownVersion,
)
from hubstream.sdd import (
    HubContext,
    MicroSDD,
    SensorDescriptor,
    ValueType,
    build_musdd,
    canonical_schema_bytes,
    fingerprint,
    parse_musdd,
    serialize_musdd,
)

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,63}", fullmatch=True)

attr_text = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_categories=("Cs", "Cc", "Cn")
    ),
    min_size=0,
    max_size=40,
)


@st.composite
def sensor_descriptors(draw, name=None):
    return SensorDescriptor(
        name=name if name is not None else draw(identifiers),
        value_type=draw(st.sampled_from(ValueType)),
        unit=draw(st.none() | attr_text),
        sample_period_ms=draw(st.integers(min_value=1, max_value=10**6)),
    )


@st.composite
def documents(draw):
    names = draw(st.lists(identifiers, min_size=1, max_size=12, unique=True))
    sensors = [draw(sensor_descriptors(name=n)) for n in names]
    context = None
    if draw(st.booleans()):
        keys = draw(st.lists(identifiers, max_size=4, unique=True))
        context = HubContext(
            location=draw(st.none() | attr_text),
            labels=tuple((k, draw(attr_text)) for k in keys),
        )
    return build_musdd(draw(identifiers), context, sensors)


def make_doc(names_types, hub="hub_a"):
    sensors = [
        SensorDescriptor(name=n, value_type=t, sample_period_ms=100)
        for n, t in names_types
    ]
    return build_musdd(hub, None, sensors)


class TestBuild:
    def test_empty_sensor_list_rejected(self):
        with pytest.raises(EmptySchema):
            build_musdd("hub_a", None, [])

    def test_duplicate_names_rejected(self):
        with pytest.raises(DuplicateField):
            make_doc([("temp", ValueType.INT), ("temp", ValueType.DOUBLE)])

    @pytest.mark.parametrize("bad", ["", "Temp", "9lives", "has-dash", "a" * 65])
    def test_bad_sensor_name_rejected(self, bad):
        with pytest.raises(BadIdentifier):
            SensorDescriptor(name=bad, value_type=ValueType.INT, sample_period_ms=10)

    def test_bad_hub_id_rejected(self):
        with pytest.raises(BadIdentifier):
            make_doc([("t", ValueType.INT)], hub="HUB")

    @pytest.mark.parametrize("period", [0, -5])
    def test_nonpositive_period_rejected(self, period):
        with pytest.raises(SchemaViolation):
            SensorDescriptor(name="t", value_type=ValueType.INT, sample_period_ms=period)

    def test_sensor_order_preserved(self):
        doc = make_doc([("b", ValueType.INT), ("a", ValueType.STRING)])
        assert doc.field_names == ("b", "a")


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(documents())
    def test_serialize_parse_identity(self, doc):
        data = serialize_musdd(doc)
        assert parse_musdd(data) == doc
        # and the canonical form is a fixed point
        assert serialize_musdd(parse_musdd(data)) == data

    def test_serialization_is_deterministic(self):
        doc = make_doc([("temp", ValueType.DOUBLE), ("mode", ValueType.STRING)])
        assert serialize_musdd(doc) == serialize_musdd(doc)

    def test_attribute_escaping(self):
        s = SensorDescriptor(
            name="t", value_type=ValueType.STRING, unit='<&">', sample_period_ms=5
        )
        doc = build_musdd(
            "hub_a", HubContext(location='lab "B" <north>'), [s]
        )
        assert parse_musdd(serialize_musdd(doc)) == doc

    def test_whitespace_and_attr_order_insensitive(self):
        data = (
            b'<musdd  hub="hub_a" version="1">\n\n'
            b'  <sensor period_ms="250" type="int"  name="temp"/>\n'
            b"</musdd>"
        )
        doc = parse_musdd(data)
        assert doc.hub_id == "hub_a"
        assert doc.sensors[0].name == "temp"
        assert doc.sensors[0].sample_period_ms == 250


class TestStrictParse:
    def test_not_xml(self):
        with pytest.raises(MalformedDocument):
            parse_musdd(b"{json: true}")

    def test_wrong_root(self):
        with pytest.raises(MalformedDocument):
            parse_musdd(b'<sdd version="1" hub="h"/>')

    def test_unknown_version(self):
        with pytest.raises(UnknownVersion):
            parse_musdd(b'<musdd version="2" hub="h"><sensor name="t" type="int" period_ms="1"/></musdd>')

    def test_unknown_element(self):
        with pytest.raises(SchemaViolation):
            parse_musdd(
                b'<musdd version="1" hub="h"><actuator name="t" type="int" period_ms="1"/></musdd>'
            )

    def test_unknown_attribute(self):
        with pytest.raises(SchemaViolation):
            parse_musdd(
                b'<musdd version="1" hub="h"><sensor name="t" type="int" period_ms="1" color="red"/></musdd>'
            )

    def test_float_is_not_a_type_keyword(self):
        with pytest.raises(SchemaViolation):
            parse_musdd(
                b'<musdd version="1" hub="h"><sensor name="t" type="float" period_ms="1"/></musdd>'
            )

    def test_no_sensors(self):
        with pytest.raises(SchemaViolation):
            parse_musdd(b'<musdd version="1" hub="h"></musdd>')

    def test_duplicate_sensor_names(self):
        with pytest.raises(SchemaViolation):
            parse_musdd(
                b'<musdd version="1" hub="h">'
                b'<sensor name="t" type="int" period_ms="1"/>'
                b'<sensor name="t" type="int" period_ms="1"/>'
                b"</musdd>"
            )

    def test_text_content_rejected(self):
        with pytest.raises(SchemaViolation):
            parse_musdd(
                b'<musdd version="1" hub="h">surprise'
                b'<sensor name="t" type="int" period_ms="1"/></musdd>'
            )

    def test_context_after_sensor_rejected(self):
        with pytest.raises(SchemaViolation):
            parse_musdd(
                b'<musdd version="1" hub="h">'
                b'<sensor name="t" type="int" period_ms="1"/>'
                b"<context/></musdd>"
            )

    @pytest.mark.parametrize("period", [b"0", b"-3", b"2.5", b"fast"])
    def test_bad_period(self, period):
        with pytest.raises(SchemaViolation):
            parse_musdd(
                b'<musdd version="1" hub="h">'
                b'<sensor name="t" type="int" period_ms="' + period + b'"/></musdd>'
            )


class TestFingerprint:
    def test_shape(self):
        doc = make_doc([("t", ValueType.INT)])
        assert len(fingerprint(doc).digest) == 32
        assert fingerprint(doc).digest == fingerprint(doc).digest.lower()

    def test_matches_independent_digest(self):
        # independently recompute the canonical form for a known schema
        doc = make_doc([("b", ValueType.STRING), ("a", ValueType.INT)])
        expected = hashlib.blake2b(b"a:INT\nb:STRING\n", digest_size=16).hexdigest()
        assert fingerprint(doc).digest == expected
        pairs = [(s.name, s.value_type) for s in doc.sensors]
        assert canonical_schema_bytes(pairs) == b"a:INT\nb:STRING\n"

    @settings(max_examples=120, deadline=None)
    @given(documents(), st.randoms())
    def test_order_context_hub_invariance(self, doc, rng):
        shuffled = list(doc.sensors)
        rng.shuffle(shuffled)
        other = MicroSDD(
            hub_id="other_hub",
            context=HubContext(location="elsewhere"),
            sensors=tuple(shuffled),
        )
        assert fingerprint(other) == fingerprint(doc)

    @settings(max_examples=120, deadline=None)
    @given(documents())
    def test_unit_and_period_invariance(self, doc):
        tweaked = MicroSDD(
            hub_id=doc.hub_id,
            context=doc.context,
            sensors=tuple(
                SensorDescriptor(
                    name=s.name,
                    value_type=s.value_type,
                    unit="furlongs",
                    sample_period_ms=s.sample_period_ms + 17,
                )
                for s in doc.sensors
            ),
        )
        assert fingerprint(tweaked) == fingerprint(doc)

    def test_type_change_changes_digest(self):
        a = make_doc([("t", ValueType.INT)])
        b = make_doc([("t", ValueType.DOUBLE)])
        assert fingerprint(a) != fingerprint(b)

    def test_name_change_changes_digest(self):
        a = make_doc([("t", ValueType.INT)])
        b = make_doc([("u", ValueType.INT)])
        assert fingerprint(a) != fingerprint(b)


def test_eight_sensor_mixed_document_round_trips():
    doc = make_doc(
        [
            ("accel_x", ValueType.DOUBLE),
            ("accel_y", ValueType.DOUBLE),
            ("accel_z", ValueType.DOUBLE),
            ("light", ValueType.INT),
            ("proximity", ValueType.INT),
            ("battery", ValueType.INT),
            ("gps_fix", ValueType.STRING),
            ("network", ValueType.STRING),
        ]
    )
    data = serialize_musdd(doc)
    assert parse_musdd(data) == doc
    assert len(fingerprint(doc).digest) == 32
