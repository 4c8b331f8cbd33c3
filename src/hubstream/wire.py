"""Binary wire formats shared by the server and the hub.

Two TCP byte streams exist between a hub and the server.

Control channel (server's control port)::

    +----------------+--------+--------------------+
    | length (u32 BE)| opcode | payload            |
    +----------------+--------+--------------------+

    length counts opcode + payload.

    0x01 REGISTER    payload = musdd document bytes, then one flag byte
                     (bit0 = re-register; remaining bits reserved, must
                     be zero)
    0x81 ASSIGN      payload = u16 data port, 16-byte session token,
                     u16-length wrapper name, field table
    0xFF NACK        payload = u8 code, UTF-8 message
    0x02 STATUS      payload = u8 query kind (0 list, 1 latest, 2 window),
                     u16-length hub id ("" with kind 0)
    0x82 STATUS_OK   payload = UTF-8 CSV text

Data channel (assigned per-session port)::

    connection opens with the 16-byte session token, then repeated frames:

    +----------------+-----------------+---------------------+--------...
    | length (u32 BE)| sequence (u64)  | timestamp_ms (u64)  | fields
    +----------------+-----------------+---------------------+--------...

    length counts everything after itself.  Each field, in declared
    schema order: one presence byte (0x00 null / 0x01 present); when
    present, INT is 8-byte signed big-endian, DOUBLE is 8-byte IEEE-754
    big-endian, STRING is u32 length + UTF-8 bytes.

Field table (inside ASSIGN payloads and plan files)::

    u16 field count, then per field: u16 name length, name UTF-8,
    u8 type code (INT=1, DOUBLE=2, STRING=3).
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

from .errors import FrameTooShort, MalformedDocument, TrailingBytes
from .sdd import ValueType

__all__ = [
    "OP_REGISTER",
    "OP_ASSIGN",
    "OP_NACK",
    "OP_STATUS",
    "OP_STATUS_OK",
    "NACK_MALFORMED",
    "NACK_NO_FREE_PORT",
    "NACK_NAME_COLLISION",
    "NACK_UNKNOWN_HUB",
    "TOKEN_LEN",
    "TYPE_CODE",
    "TYPE_FROM_CODE",
    "U16",
    "U32",
    "U64",
    "I64",
    "F64",
    "FRAME_HEADER",
    "recv_exact",
    "read_message",
    "pack_message",
    "write_message",
    "pack_register",
    "unpack_register",
    "pack_assign",
    "unpack_assign",
    "pack_nack",
    "unpack_nack",
    "pack_status",
    "unpack_status",
    "pack_field_table",
    "unpack_field_table",
    "pack_frame",
    "read_frame",
    "ConnectionClosed",
]

OP_REGISTER = 0x01
OP_STATUS = 0x02
OP_ASSIGN = 0x81
OP_STATUS_OK = 0x82
OP_NACK = 0xFF

NACK_MALFORMED = 1
NACK_NO_FREE_PORT = 2
NACK_NAME_COLLISION = 3
NACK_UNKNOWN_HUB = 4

TOKEN_LEN = 16

# Largest message/frame we will read.  Nothing legitimate comes close;
# this bounds memory against a corrupt length prefix.
MAX_MESSAGE = 16 * 1024 * 1024

U16 = struct.Struct(">H")
U32 = struct.Struct(">I")
U64 = struct.Struct(">Q")
I64 = struct.Struct(">q")
F64 = struct.Struct(">d")
FRAME_HEADER = struct.Struct(">QQ")  # sequence, timestamp_ms

TYPE_CODE = {ValueType.INT: 1, ValueType.DOUBLE: 2, ValueType.STRING: 3}
TYPE_FROM_CODE = {code: vt for vt, code in TYPE_CODE.items()}


class ConnectionClosed(Exception):
    """Peer closed the socket mid-read (clean close between messages
    raises with partial=False)."""

    def __init__(self, partial: bool):
        super().__init__("connection closed" + (" mid-message" if partial else ""))
        self.partial = partial


def recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly n bytes or raise ConnectionClosed."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionClosed(partial=remaining != n)
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# --- control channel -------------------------------------------------------

def pack_message(opcode: int, payload: bytes) -> bytes:
    return U32.pack(1 + len(payload)) + bytes([opcode]) + payload


def write_message(sock: socket.socket, opcode: int, payload: bytes) -> None:
    sock.sendall(pack_message(opcode, payload))


def read_message(sock: socket.socket) -> tuple[int, bytes]:
    """Return (opcode, payload).  Raises ConnectionClosed on EOF,
    MalformedDocument on an impossible length."""
    (length,) = U32.unpack(recv_exact(sock, 4))
    if length < 1 or length > MAX_MESSAGE:
        raise MalformedDocument(f"control message length {length} out of range")
    body = recv_exact(sock, length)
    return body[0], body[1:]


def pack_register(doc_bytes: bytes, reregister: bool = False) -> bytes:
    return doc_bytes + bytes([0x01 if reregister else 0x00])


def unpack_register(payload: bytes) -> tuple[bytes, bool]:
    """Split a REGISTER payload into (document bytes, re-register flag)."""
    if len(payload) < 2:
        raise MalformedDocument("REGISTER payload too short")
    flags = payload[-1]
    if flags & ~0x01:
        raise MalformedDocument(f"reserved REGISTER flag bits set: {flags:#04x}")
    return payload[:-1], bool(flags & 0x01)


def pack_field_table(fields: list[tuple[str, ValueType]] | tuple) -> bytes:
    parts = [U16.pack(len(fields))]
    for name, vtype in fields:
        encoded = name.encode("utf-8")
        parts.append(U16.pack(len(encoded)))
        parts.append(encoded)
        parts.append(bytes([TYPE_CODE[vtype]]))
    return b"".join(parts)


def unpack_field_table(data: bytes, offset: int = 0) -> tuple[list[tuple[str, ValueType]], int]:
    """Decode a field table; returns (fields, next offset)."""
    try:
        (count,) = U16.unpack_from(data, offset)
        offset += 2
        fields = []
        for _ in range(count):
            (name_len,) = U16.unpack_from(data, offset)
            offset += 2
            name = data[offset : offset + name_len].decode("utf-8")
            if len(name.encode("utf-8")) != name_len:
                raise MalformedDocument("field table truncated in name")
            offset += name_len
            code = data[offset]
            offset += 1
            if code not in TYPE_FROM_CODE:
                raise MalformedDocument(f"unknown field type code {code}")
            fields.append((name, TYPE_FROM_CODE[code]))
        return fields, offset
    except (struct.error, IndexError) as exc:
        raise MalformedDocument(f"field table truncated: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"field name is not UTF-8: {exc}") from exc


@dataclass(frozen=True)
class AssignPayload:
    data_port: int
    token: bytes
    wrapper_name: str
    field_layout: tuple[tuple[str, ValueType], ...]


def pack_assign(
    data_port: int,
    token: bytes,
    wrapper_name: str,
    field_layout,
) -> bytes:
    if len(token) != TOKEN_LEN:
        raise ValueError(f"token must be {TOKEN_LEN} bytes")
    name = wrapper_name.encode("utf-8")
    return (
        U16.pack(data_port)
        + token
        + U16.pack(len(name))
        + name
        + pack_field_table(field_layout)
    )


def unpack_assign(payload: bytes) -> AssignPayload:
    try:
        (port,) = U16.unpack_from(payload, 0)
        token = payload[2 : 2 + TOKEN_LEN]
        if len(token) != TOKEN_LEN:
            raise MalformedDocument("ASSIGN payload truncated in token")
        offset = 2 + TOKEN_LEN
        (name_len,) = U16.unpack_from(payload, offset)
        offset += 2
        wrapper_name = payload[offset : offset + name_len].decode("utf-8")
        offset += name_len
        fields, offset = unpack_field_table(payload, offset)
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise MalformedDocument(f"bad ASSIGN payload: {exc}") from exc
    if offset != len(payload):
        raise TrailingBytes(f"{len(payload) - offset} stray bytes after ASSIGN payload")
    return AssignPayload(port, token, wrapper_name, tuple(fields))


def pack_nack(code: int, message: str) -> bytes:
    return bytes([code]) + message.encode("utf-8")


def unpack_nack(payload: bytes) -> tuple[int, str]:
    if not payload:
        raise MalformedDocument("empty NACK payload")
    return payload[0], payload[1:].decode("utf-8", errors="replace")


def pack_status(kind: int, hub_id: str = "") -> bytes:
    encoded = hub_id.encode("utf-8")
    return bytes([kind]) + U16.pack(len(encoded)) + encoded


def unpack_status(payload: bytes) -> tuple[int, str]:
    if len(payload) < 3:
        raise MalformedDocument("STATUS payload too short")
    kind = payload[0]
    (hub_len,) = U16.unpack_from(payload, 1)
    if 3 + hub_len != len(payload):
        raise TrailingBytes("stray bytes after STATUS payload")
    try:
        hub_id = payload[3:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"STATUS hub id is not UTF-8: {exc}") from exc
    return kind, hub_id


# --- data channel ----------------------------------------------------------

def pack_frame(sequence: int, timestamp_ms: int, field_bytes: bytes) -> bytes:
    body = FRAME_HEADER.pack(sequence, timestamp_ms) + field_bytes
    return U32.pack(len(body)) + body


def read_frame(sock: socket.socket) -> bytes:
    """Read one length-prefixed frame body (sequence + timestamp + fields,
    without the length prefix)."""
    (length,) = U32.unpack(recv_exact(sock, 4))
    if length < FRAME_HEADER.size:
        raise FrameTooShort(f"frame length {length} below header size")
    if length > MAX_MESSAGE:
        raise FrameTooShort(f"frame length {length} out of range")
    return recv_exact(sock, length)
