"""Control and data channel codecs."""

import socket
import threading

import pytest
from hypothesis import given, strategies as st

from hubstream import wire
from hubstream.errors import FrameTooShort, MalformedDocument, TrailingBytes
from hubstream.sdd import ValueType

field_names = st.from_regex(r"[a-z][a-z0-9_]{0,63}", fullmatch=True)
field_lists = st.lists(
    st.tuples(field_names, st.sampled_from(ValueType)), max_size=40
)


@given(field_lists)
def test_field_table_round_trip(fields):
    data = wire.pack_field_table(fields)
    decoded, offset = wire.unpack_field_table(data)
    assert decoded == fields
    assert offset == len(data)


def test_field_table_rejects_unknown_type_code():
    data = wire.U16.pack(1) + wire.U16.pack(1) + b"a" + bytes([9])
    with pytest.raises(MalformedDocument):
        wire.unpack_field_table(data)


def test_field_table_rejects_truncation():
    data = wire.pack_field_table([("abc", ValueType.INT)])
    with pytest.raises(MalformedDocument):
        wire.unpack_field_table(data[:-2])


def test_field_table_rejects_name_that_is_not_utf8():
    data = wire.U16.pack(1) + wire.U16.pack(2) + b"\xff\xfe" + bytes([1])
    with pytest.raises(MalformedDocument):
        wire.unpack_field_table(data)


class TestRegister:
    def test_round_trip_both_flags(self):
        for flag in (False, True):
            doc, rereg = wire.unpack_register(wire.pack_register(b"<musdd/>", flag))
            assert doc == b"<musdd/>"
            assert rereg is flag

    def test_reserved_bits_rejected(self):
        with pytest.raises(MalformedDocument):
            wire.unpack_register(b"<musdd/>" + bytes([0x02]))

    def test_too_short(self):
        with pytest.raises(MalformedDocument):
            wire.unpack_register(b"\x00")


class TestAssign:
    @given(
        st.integers(min_value=0, max_value=65535),
        st.binary(min_size=16, max_size=16),
        field_names,
        field_lists,
    )
    def test_round_trip(self, port, token, name, fields):
        payload = wire.pack_assign(port, token, name, fields)
        out = wire.unpack_assign(payload)
        assert out.data_port == port
        assert out.token == token
        assert out.wrapper_name == name
        assert out.field_layout == tuple(fields)

    def test_bad_token_length(self):
        with pytest.raises(ValueError):
            wire.pack_assign(5, b"short", "w", [])

    def test_trailing_bytes_rejected(self):
        payload = wire.pack_assign(5, b"t" * 16, "w", []) + b"x"
        with pytest.raises(TrailingBytes):
            wire.unpack_assign(payload)

    def test_truncated_rejected(self):
        payload = wire.pack_assign(5, b"t" * 16, "wrapper", [("a", ValueType.INT)])
        with pytest.raises(MalformedDocument):
            wire.unpack_assign(payload[:10])


def test_nack_round_trip():
    code, msg = wire.unpack_nack(wire.pack_nack(3, "taken"))
    assert (code, msg) == (3, "taken")


def test_status_round_trip():
    assert wire.unpack_status(wire.pack_status(1, "hub_a")) == (1, "hub_a")
    assert wire.unpack_status(wire.pack_status(0)) == (0, "")


def test_status_rejects_hub_id_that_is_not_utf8():
    with pytest.raises(MalformedDocument):
        wire.unpack_status(bytes([1]) + wire.U16.pack(2) + b"\xff\xfe")


class TestSocketFraming:
    def test_message_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            wire.write_message(a, wire.OP_REGISTER, b"payload")
            opcode, payload = wire.read_message(b)
            assert (opcode, payload) == (wire.OP_REGISTER, b"payload")
        finally:
            a.close()
            b.close()

    def test_split_writes_reassembled(self):
        a, b = socket.socketpair()
        try:
            raw = wire.U32.pack(4) + bytes([wire.OP_NACK]) + b"abc"

            def dribble():
                for i in range(len(raw)):
                    a.sendall(raw[i : i + 1])

            t = threading.Thread(target=dribble)
            t.start()
            opcode, payload = wire.read_message(b)
            t.join()
            assert (opcode, payload) == (wire.OP_NACK, b"abc")
        finally:
            a.close()
            b.close()

    def test_eof_between_messages(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(wire.ConnectionClosed) as exc:
                wire.read_message(b)
            assert exc.value.partial is False
        finally:
            b.close()

    def test_eof_mid_message(self):
        a, b = socket.socketpair()
        try:
            a.sendall(wire.U32.pack(100) + b"\x01partial")
            a.close()
            with pytest.raises(wire.ConnectionClosed) as exc:
                wire.read_message(b)
            assert exc.value.partial is True
        finally:
            b.close()

    def test_zero_length_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(wire.U32.pack(0))
            with pytest.raises(MalformedDocument):
                wire.read_message(b)
        finally:
            a.close()
            b.close()


class TestDataFrames:
    def test_frame_layout(self):
        frame = wire.pack_frame(1, 0, bytes([0x01]) + wire.I64.pack(5))
        # length prefix counts seq + ts + field bytes
        assert frame[:4] == wire.U32.pack(8 + 8 + 9)
        assert frame[4:12] == wire.U64.pack(1)
        assert frame[12:20] == wire.U64.pack(0)
        assert frame[20] == 0x01
        assert frame[21:] == wire.I64.pack(5)

    def test_read_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            a.sendall(wire.pack_frame(7, 123456, b"\x00"))
            body = wire.read_frame(b)
            seq, ts = wire.FRAME_HEADER.unpack_from(body)
            assert (seq, ts, body[16:]) == (7, 123456, b"\x00")
        finally:
            a.close()
            b.close()

    def test_short_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(wire.U32.pack(4) + b"xxxx")
            with pytest.raises(FrameTooShort):
                wire.read_frame(b)
        finally:
            a.close()
            b.close()
