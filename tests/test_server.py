"""Registration orchestration, rollback, ingest accounting, TCP shell."""

import errno
import random
import socket
import threading
import time

import pytest

from hubstream import wire
from hubstream.errors import (
    MalformedDocument,
    NameCollision,
    NoFreePort,
    RepositoryIO,
    UnknownHub,
)
from hubstream.sdd import SensorDescriptor, ValueType, build_musdd, serialize_musdd
from hubstream.server import (
    MiddlewareCore,
    MiddlewareServer,
    PortAllocator,
    RecordLog,
    SessionState,
    STATUS_LATEST,
    STATUS_LIST,
    STATUS_WINDOW,
    ACCEPT_BACKOFF_S,
    RECV_BYTES,
    WINDOW_BUFFER_LEN,
)
from hubstream.wrapper import LifecycleState, Strategy, decode_record

from oracles import random_row, random_schema, reference_frame


def doc_bytes(schema, hub="hub_a"):
    sensors = [
        SensorDescriptor(name=n, value_type=t, sample_period_ms=100)
        for n, t in schema
    ]
    return serialize_musdd(build_musdd(hub, None, sensors))


EIGHT = [(f"s{i}", ValueType.DOUBLE) for i in range(8)]
SMALL = [("temp", ValueType.DOUBLE), ("mode", ValueType.STRING)]


class TestPortAllocator:
    def test_unique_until_exhausted(self):
        alloc = PortAllocator(9000, 9002)
        got = {alloc.reserve() for _ in range(3)}
        assert got == {9000, 9001, 9002}
        with pytest.raises(NoFreePort):
            alloc.reserve()

    def test_released_ports_reusable(self):
        alloc = PortAllocator(9000, 9000)
        port = alloc.reserve()
        alloc.release(port)
        assert alloc.reserve() == port

    def test_double_release_harmless(self):
        alloc = PortAllocator(9000, 9001)
        port = alloc.reserve()
        alloc.release(port)
        alloc.release(port)
        assert {alloc.reserve(), alloc.reserve()} == {9000, 9001}


class TestRegistration:
    def test_valid_registration(self, tmp_path):
        core = MiddlewareCore(tmp_path, Strategy.DGCW, port_range=(7100, 7110))
        config = core.handle_register(doc_bytes(EIGHT))
        assert 7100 <= config.data_port <= 7110
        assert config.wrapper_name.startswith("dgcw_")
        assert [n for n, _ in config.field_layout] == [n for n, _ in EIGHT]
        assert len(config.session_token) == 16
        session = core.get_session("hub_a")
        assert session.state is SessionState.ACTIVE
        assert session.instance.state is LifecycleState.RUNNING
        assert session.configuration_time_ms > 0

    def test_garbage_bytes_no_session(self, tmp_path):
        core = MiddlewareCore(tmp_path)
        with pytest.raises(MalformedDocument):
            core.handle_register(b"\x99not a document")
        assert core.sessions == {}
        assert core.ports.active_count() == 0

    def test_second_registration_same_hub_collides(self, tmp_path):
        core = MiddlewareCore(tmp_path)
        core.handle_register(doc_bytes(SMALL))
        with pytest.raises(NameCollision):
            core.handle_register(doc_bytes(SMALL))

    def test_reregister_tears_down_old_session(self, tmp_path):
        core = MiddlewareCore(tmp_path)
        core.handle_register(doc_bytes(SMALL))
        old = core.get_session("hub_a")
        bigger = SMALL + [("extra", ValueType.INT)]
        config = core.handle_register(doc_bytes(bigger), reregister=True)
        assert old.state is SessionState.TORN_DOWN
        assert old.instance.state is LifecycleState.DISPOSED
        assert len(config.field_layout) == 3
        assert core.get_session("hub_a").state is SessionState.ACTIVE
        # old port is reusable
        assert core.ports.active_count() == 1

    def test_reregister_same_schema_hits_cache(self, tmp_path):
        core = MiddlewareCore(tmp_path)
        core.handle_register(doc_bytes(SMALL))
        assert core.get_session("hub_a").cache_hit is False
        core.handle_register(doc_bytes(SMALL), reregister=True)
        assert core.get_session("hub_a").cache_hit is True

    def test_reregister_unknown_hub_is_fresh_register(self, tmp_path):
        core = MiddlewareCore(tmp_path)
        config = core.handle_reregister(doc_bytes(SMALL))
        assert core.get_session("hub_a").state is SessionState.ACTIVE
        assert config.data_port

    def test_port_exhaustion(self, tmp_path):
        core = MiddlewareCore(tmp_path, port_range=(7100, 7100))
        core.handle_register(doc_bytes(SMALL, hub="hub_a"))
        with pytest.raises(NoFreePort):
            core.handle_register(doc_bytes(SMALL, hub="hub_b"))
        # failed attempt left nothing behind
        assert "hub_b" not in core.sessions
        assert core.catalog.live("hub_b") is None

    def test_two_hubs_get_distinct_ports(self, tmp_path):
        core = MiddlewareCore(tmp_path)
        a = core.handle_register(doc_bytes(SMALL, hub="hub_a"))
        b = core.handle_register(doc_bytes(SMALL, hub="hub_b"))
        assert a.data_port != b.data_port


class TestRollback:
    """Fault injection at each pipeline step: nothing may leak."""

    def assert_clean(self, core, hub="hub_a"):
        assert hub not in core.sessions
        assert core.catalog.live(hub) is None
        assert core.ports.active_count() == 0
        # and the pipeline is healthy afterwards
        config = core.handle_register(doc_bytes(SMALL, hub=hub))
        assert config.data_port

    def test_fail_at_vsd_generation(self, tmp_path, monkeypatch):
        core = MiddlewareCore(tmp_path)
        monkeypatch.setattr(
            core.catalog,
            "generate_vsd",
            lambda *a, **k: (_ for _ in ()).throw(RepositoryIO("disk full")),
        )
        with pytest.raises(RepositoryIO):
            core.handle_register(doc_bytes(SMALL))
        monkeypatch.undo()
        self.assert_clean(core)

    def test_fail_at_port_reserve(self, tmp_path, monkeypatch):
        core = MiddlewareCore(tmp_path)
        monkeypatch.setattr(
            core.ports,
            "reserve",
            lambda: (_ for _ in ()).throw(NoFreePort("injected")),
        )
        with pytest.raises(NoFreePort):
            core.handle_register(doc_bytes(SMALL))
        monkeypatch.undo()
        self.assert_clean(core)

    def test_fail_at_instantiate(self, tmp_path, monkeypatch):
        core = MiddlewareCore(tmp_path)
        monkeypatch.setattr(
            "hubstream.server.instantiate",
            lambda *a: (_ for _ in ()).throw(RuntimeError("injected")),
        )
        with pytest.raises(RuntimeError):
            core.handle_register(doc_bytes(SMALL))
        monkeypatch.undo()
        self.assert_clean(core)

    def test_fail_at_start(self, tmp_path, monkeypatch):
        core = MiddlewareCore(tmp_path)
        from hubstream import wrapper as wrapper_mod

        monkeypatch.setattr(
            wrapper_mod.WrapperInstance,
            "start",
            lambda self: (_ for _ in ()).throw(RuntimeError("injected")),
        )
        with pytest.raises(RuntimeError):
            core.handle_register(doc_bytes(SMALL))
        monkeypatch.undo()
        self.assert_clean(core)

    def test_fail_at_log_open(self, tmp_path, monkeypatch):
        core = MiddlewareCore(tmp_path)
        monkeypatch.setattr(
            "hubstream.server.RecordLog",
            lambda path: (_ for _ in ()).throw(OSError("injected")),
        )
        with pytest.raises(OSError):
            core.handle_register(doc_bytes(SMALL))
        monkeypatch.undo()
        self.assert_clean(core)


class TestIngest:
    def register(self, tmp_path, schema=SMALL, strategy=Strategy.DGCW):
        core = MiddlewareCore(tmp_path, strategy)
        core.handle_register(doc_bytes(schema))
        return core, core.get_session("hub_a")

    def test_frame_stored(self, tmp_path):
        core, session = self.register(tmp_path)
        rec = core.ingest_frame(session, reference_frame(SMALL, [1.5, "on"], 0, 10))
        assert rec.values == (("temp", 1.5), ("mode", "on"))
        assert session.records_decoded == 1
        assert session.frames_received == 1

    def test_null_field_stored_without_error(self, tmp_path):
        core, session = self.register(tmp_path)
        rec = core.ingest_frame(session, reference_frame(SMALL, [None, "x"], 0, 0))
        assert rec.values[0] == ("temp", None)
        assert session.frames_malformed == 0

    def test_malformed_frame_skipped_connection_kept(self, tmp_path):
        core, session = self.register(tmp_path)
        assert core.ingest_frame(session, b"\x00" * 5) is None
        assert session.frames_malformed == 1
        # next good frame still lands
        assert core.ingest_frame(session, reference_frame(SMALL, [1.0, "a"], 1, 0))

    def test_duplicate_stored_once(self, tmp_path):
        core, session = self.register(tmp_path)
        frame = reference_frame(SMALL, [2.0, "b"], 7, 0)
        assert core.ingest_frame(session, frame) is not None
        assert core.ingest_frame(session, frame) is None
        assert session.duplicates_dropped == 1
        assert session.records_decoded == 1

    def test_conservation_over_random_mix(self, tmp_path):
        rng = random.Random(13)
        schema = random_schema(rng, max_fields=6)
        core, session = self.register(tmp_path, schema=schema)
        sent = 0
        seq = 0
        for _ in range(500):
            roll = rng.random()
            if roll < 0.1:
                core.ingest_frame(session, b"junk")
                sent += 1
            elif roll < 0.25 and seq > 0:
                dup_seq = rng.randrange(max(0, seq - 50), seq)
                frame = reference_frame(
                    schema, random_row(rng, schema), dup_seq, seq * 10
                )
                core.ingest_frame(session, frame)
                sent += 1
            else:
                frame = reference_frame(schema, random_row(rng, schema), seq, seq * 10)
                core.ingest_frame(session, frame)
                sent += 1
                seq += 1
        stored = session.records_decoded
        assert session.frames_received == sent
        assert (
            sent - session.frames_malformed - session.duplicates_dropped == stored
        )
        log_path = tmp_path / "data" / "hub_a.log"
        assert sum(1 for _ in RecordLog.replay(log_path)) == stored

    def test_batch_counts_and_logs_like_single_frames(self, tmp_path):
        core, session = self.register(tmp_path)
        frames = [reference_frame(SMALL, [float(seq), "v"], seq, seq) for seq in range(5)]
        batch = [frames[0], frames[1], b"junk", frames[1], frames[2], frames[4], frames[3]]
        assert core.ingest_batch(session, batch, arrival_ms=77) == 5
        assert [r.sequence for r in session.window_buffer] == [0, 1, 2, 4, 3]
        assert session.frames_received == 7
        assert session.frames_malformed == 1
        assert session.duplicates_dropped == 1
        entries = list(RecordLog.replay(tmp_path / "data" / "hub_a.log"))
        assert entries == [(77, f) for f in (frames[0], frames[1], frames[2], frames[4], frames[3])]

    def test_window_buffer_keeps_the_newest(self, tmp_path):
        core, session = self.register(tmp_path)
        frames = [reference_frame(SMALL, [1.0, "v"], seq, 0) for seq in range(WINDOW_BUFFER_LEN + 5)]
        core.ingest_batch(session, frames)
        assert len(session.window_buffer) == WINDOW_BUFFER_LEN
        assert session.window_buffer[0].sequence == 5

    def test_log_replays_to_identical_records(self, tmp_path):
        core, session = self.register(tmp_path)
        originals = []
        for seq in range(20):
            frame = reference_frame(SMALL, [float(seq), f"v{seq}"], seq, seq * 100)
            originals.append(core.ingest_frame(session, frame))
        plan = session.instance.plan
        replayed = [
            decode_record(plan, body, "hub_a")
            for _, body in RecordLog.replay(tmp_path / "data" / "hub_a.log")
        ]
        assert replayed == originals


class TestStatus:
    def test_empty_list(self, tmp_path):
        core = MiddlewareCore(tmp_path)
        text = core.status_query(STATUS_LIST)
        assert text.splitlines() == ["hub_id,state,records_decoded,fingerprint"]

    def test_one_active_hub_row(self, tmp_path):
        core = MiddlewareCore(tmp_path)
        core.handle_register(doc_bytes(SMALL))
        lines = core.status_query(STATUS_LIST).splitlines()
        assert len(lines) == 2
        hub_id, state, decoded, fp = lines[1].split(",")
        assert (hub_id, state, decoded) == ("hub_a", "active", "0")
        assert len(fp) == 32

    def test_latest_returns_highest_sequence(self, tmp_path):
        core = MiddlewareCore(tmp_path)
        core.handle_register(doc_bytes(SMALL))
        session = core.get_session("hub_a")
        for seq, temp in [(0, 1.0), (2, 3.0), (1, 2.0)]:
            core.ingest_frame(session, reference_frame(SMALL, [temp, "m"], seq, 0))
        lines = core.status_query(STATUS_LATEST, "hub_a").splitlines()
        assert lines[0] == "hub_id,sequence,timestamp_ms,temp,mode"
        assert lines[1].startswith("hub_a,2,")

    def test_window_default_query(self, tmp_path):
        core = MiddlewareCore(tmp_path)
        core.handle_register(doc_bytes(SMALL))
        session = core.get_session("hub_a")
        core.ingest_frame(session, reference_frame(SMALL, [4.5, "z"], 0, 0))
        lines = core.status_query(STATUS_WINDOW, "hub_a").splitlines()
        assert lines[0] == "field,op,value"
        assert lines[1] == "temp,latest,4.5"
        assert lines[2] == "mode,latest,z"

    def test_unknown_hub(self, tmp_path):
        core = MiddlewareCore(tmp_path)
        with pytest.raises(UnknownHub):
            core.status_query(STATUS_LATEST, "ghost")


# --- TCP shell ----------------------------------------------------------------

def control_connect(server):
    sock = socket.create_connection(("127.0.0.1", server.control_port), timeout=5)
    sock.settimeout(5)
    return sock


def register_over_tcp(server, schema, hub="hub_a", reregister=False):
    with control_connect(server) as sock:
        wire.write_message(
            sock, wire.OP_REGISTER, wire.pack_register(doc_bytes(schema, hub), reregister)
        )
        opcode, payload = wire.read_message(sock)
    if opcode == wire.OP_NACK:
        return opcode, wire.unpack_nack(payload)
    return opcode, wire.unpack_assign(payload)


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


@pytest.fixture
def server(tmp_path):
    srv = MiddlewareServer(
        tmp_path, Strategy.DGCW, control_port=0, port_range=(17100, 17140)
    ).start()
    yield srv
    srv.stop()


class TestTcp:
    def test_register_and_stream(self, server):
        opcode, assign = register_over_tcp(server, SMALL)
        assert opcode == wire.OP_ASSIGN
        assert assign.field_layout == (
            ("temp", ValueType.DOUBLE),
            ("mode", ValueType.STRING),
        )
        with socket.create_connection(("127.0.0.1", assign.data_port), timeout=5) as data:
            data.sendall(assign.token)
            for seq in range(10):
                body = reference_frame(SMALL, [float(seq), "ok"], seq, seq * 100)
                data.sendall(wire.U32.pack(len(body)) + body)
            session = server.core.get_session("hub_a")
            assert wait_until(lambda: session.records_decoded == 10)

    def test_nack_on_garbage_document(self, server):
        with control_connect(server) as sock:
            wire.write_message(
                sock, wire.OP_REGISTER, wire.pack_register(b"garbage", False)
            )
            opcode, payload = wire.read_message(sock)
        assert opcode == wire.OP_NACK
        code, _ = wire.unpack_nack(payload)
        assert code == wire.NACK_MALFORMED

    def test_nack_on_name_collision(self, server):
        assert register_over_tcp(server, SMALL)[0] == wire.OP_ASSIGN
        opcode, (code, _) = register_over_tcp(server, SMALL)
        assert opcode == wire.OP_NACK
        assert code == wire.NACK_NAME_COLLISION

    def test_reregister_flag_allows_second_registration(self, server):
        assert register_over_tcp(server, SMALL)[0] == wire.OP_ASSIGN
        opcode, assign = register_over_tcp(server, EIGHT, reregister=True)
        assert opcode == wire.OP_ASSIGN
        assert len(assign.field_layout) == 8

    def test_bad_token_connection_dropped(self, server):
        _, assign = register_over_tcp(server, SMALL)
        with socket.create_connection(("127.0.0.1", assign.data_port), timeout=5) as data:
            data.sendall(b"w" * 16)
            body = reference_frame(SMALL, [1.0, "x"], 0, 0)
            try:
                data.sendall(wire.U32.pack(len(body)) + body)
            except OSError:
                pass
            data.settimeout(5)
            # Closing with our frame bytes still unread can surface as RST
            # instead of a clean EOF; either way the server dropped us.
            try:
                leftover = data.recv(1)
            except ConnectionResetError:
                leftover = b""
            assert leftover == b""
        session = server.core.get_session("hub_a")
        assert session.records_decoded == 0
        assert session.bad_tokens == 1

    def test_status_over_tcp(self, server):
        register_over_tcp(server, SMALL)
        with control_connect(server) as sock:
            wire.write_message(sock, wire.OP_STATUS, wire.pack_status(STATUS_LIST))
            opcode, payload = wire.read_message(sock)
        assert opcode == wire.OP_STATUS_OK
        assert "hub_a,active" in payload.decode()

    def test_status_unknown_hub_nacks(self, server):
        with control_connect(server) as sock:
            wire.write_message(
                sock, wire.OP_STATUS, wire.pack_status(STATUS_LATEST, "ghost")
            )
            opcode, payload = wire.read_message(sock)
        assert opcode == wire.OP_NACK
        assert wire.unpack_nack(payload)[0] == wire.NACK_UNKNOWN_HUB

    def test_reconnect_same_token_resumes(self, server):
        _, assign = register_over_tcp(server, SMALL)
        session = server.core.get_session("hub_a")
        for start in (0, 5):
            with socket.create_connection(
                ("127.0.0.1", assign.data_port), timeout=5
            ) as data:
                data.sendall(assign.token)
                for seq in range(start, start + 5):
                    body = reference_frame(SMALL, [1.0, "x"], seq, 0)
                    data.sendall(wire.U32.pack(len(body)) + body)
                assert wait_until(lambda: session.records_decoded >= start + 5)
        assert session.records_decoded == 10

    @pytest.mark.parametrize("bad_length", [3, wire.MAX_MESSAGE + 1])
    def test_bad_length_drops_connection_and_reconnect_is_served(self, server, bad_length):
        _, assign = register_over_tcp(server, SMALL)
        session = server.core.get_session("hub_a")
        with socket.create_connection(("127.0.0.1", assign.data_port), timeout=5) as data:
            good = reference_frame(SMALL, [1.0, "x"], 0, 0)
            data.sendall(
                assign.token + wire.U32.pack(len(good)) + good + wire.U32.pack(bad_length)
            )
            data.settimeout(5)
            try:
                assert data.recv(1) == b""
            except ConnectionResetError:
                pass
        with socket.create_connection(("127.0.0.1", assign.data_port), timeout=5) as data:
            data.sendall(assign.token)
            for seq in range(1, 6):
                body = reference_frame(SMALL, [1.0, "x"], seq, 0)
                data.sendall(wire.U32.pack(len(body)) + body)
            # the frame before the bad length, then the five after the reconnect
            assert wait_until(lambda: session.records_decoded == 6)
        assert session.frames_malformed == 0
        assert session.bad_lengths == 1

    def test_frames_split_at_any_byte_are_reassembled(self, server, tmp_path):
        _, assign = register_over_tcp(server, SMALL)
        bodies = [reference_frame(SMALL, [float(s), "m" * s], s, s) for s in range(40)]
        stream = assign.token + b"".join(wire.U32.pack(len(b)) + b for b in bodies)
        rng = random.Random(5)
        with socket.create_connection(("127.0.0.1", assign.data_port), timeout=5) as data:
            data.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            pos = 0
            while pos < len(stream):
                step = rng.choice((1, 2, 3, 7, 30, 200))
                data.sendall(stream[pos : pos + step])
                pos += step
                time.sleep(0.0005)
            session = server.core.get_session("hub_a")
            assert wait_until(lambda: session.frames_received == 40)
        assert session.records_decoded == 40
        logged = [body for _, body in RecordLog.replay(tmp_path / "data" / "hub_a.log")]
        assert logged == bodies

    def test_second_connection_waits_for_the_first(self, server):
        _, assign = register_over_tcp(server, SMALL)
        session = server.core.get_session("hub_a")
        body = reference_frame(SMALL, [1.0, "x"], 0, 0)
        first = socket.create_connection(("127.0.0.1", assign.data_port), timeout=5)
        second = socket.create_connection(("127.0.0.1", assign.data_port), timeout=5)
        try:
            first.sendall(assign.token)
            second.sendall(assign.token + wire.U32.pack(len(body)) + body)
            time.sleep(0.2)
            assert session.frames_received == 0  # still in the backlog
            first.close()
            assert wait_until(lambda: session.records_decoded == 1)
        finally:
            first.close()
            second.close()

    def test_bad_status_nacks_and_connection_survives(self, server):
        register_over_tcp(server, SMALL)
        with control_connect(server) as sock:
            bad = bytes([STATUS_LATEST]) + wire.U16.pack(2) + b"\xff\xfe"
            wire.write_message(sock, wire.OP_STATUS, bad)
            opcode, payload = wire.read_message(sock)
            assert opcode == wire.OP_NACK
            assert wire.unpack_nack(payload)[0] == wire.NACK_MALFORMED
            wire.write_message(sock, wire.OP_STATUS, wire.pack_status(STATUS_LIST))
            opcode, payload = wire.read_message(sock)
        assert opcode == wire.OP_STATUS_OK
        assert "hub_a,active" in payload.decode()

    def test_thread_count_does_not_grow_with_hubs(self, server):
        def settled_thread_count():
            assert wait_until(
                lambda: not any(t.name == "control-conn" for t in threading.enumerate())
            )
            return threading.active_count()

        def register_and_stream(hub):
            opcode, assign = register_over_tcp(server, SMALL, hub=hub)
            assert opcode == wire.OP_ASSIGN
            data = socket.create_connection(("127.0.0.1", assign.data_port), timeout=5)
            body = reference_frame(SMALL, [1.0, "x"], 0, 0)
            data.sendall(assign.token + wire.U32.pack(len(body)) + body)
            return data

        conns = [register_and_stream("hub_0")]
        try:
            with_one = settled_thread_count()
            conns += [register_and_stream(f"hub_{i}") for i in range(1, 20)]
            assert wait_until(
                lambda: all(s.records_decoded == 1 for s in server.core.sessions.values())
            )
            assert len(server.core.sessions) == 20
            assert settled_thread_count() == with_one
        finally:
            for conn in conns:
                conn.close()

    def test_teardown_closes_port_and_frees_it_at_once(self, server):
        _, assign = register_over_tcp(server, SMALL)
        session = server.core.get_session("hub_a")
        data = socket.create_connection(("127.0.0.1", assign.data_port), timeout=5)
        try:
            body = reference_frame(SMALL, [1.0, "x"], 0, 0)
            data.sendall(assign.token + wire.U32.pack(len(body)) + body)
            assert wait_until(lambda: session.records_decoded == 1)
            server.core.teardown_session("hub_a")
            try:
                assert data.recv(1) == b""  # the served connection is closed
            except ConnectionResetError:
                pass
        finally:
            data.close()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", assign.data_port), timeout=5).close()
        opcode, again = register_over_tcp(server, SMALL, hub="hub_b")
        assert opcode == wire.OP_ASSIGN
        assert again.data_port == assign.data_port
        with socket.create_connection(("127.0.0.1", again.data_port), timeout=5) as data:
            data.sendall(again.token + wire.U32.pack(len(body)) + body)
            fresh = server.core.get_session("hub_b")
            assert wait_until(lambda: fresh.records_decoded == 1)

    def test_bind_failure_rolls_back_and_nacks(self, server):
        blocker = socket.create_server(("127.0.0.1", 17100))
        try:
            opcode, (code, _) = register_over_tcp(server, SMALL)
        finally:
            blocker.close()
        assert (opcode, code) == (wire.OP_NACK, wire.NACK_NO_FREE_PORT)
        assert server.core.sessions == {}
        assert server.core.ports.active_count() == 0
        assert server.core.catalog.live("hub_a") is None
        assert register_over_tcp(server, SMALL)[0] == wire.OP_ASSIGN

    def test_registration_once_the_data_plane_stopped_is_refused(self, server):
        server._data_plane.stop()
        opcode, (code, _) = register_over_tcp(server, SMALL)
        assert (opcode, code) == (wire.OP_NACK, wire.NACK_NO_FREE_PORT)
        assert server.core.sessions == {}
        assert server.core.ports.active_count() == 0
        assert server.core.catalog.live("hub_a") is None

    def test_status_beside_full_rate_stream(self, server):
        _, assign = register_over_tcp(server, SMALL)
        fields = reference_frame(SMALL, [1.0, "x"], 0, 0)[wire.FRAME_HEADER.size :]
        stop = threading.Event()

        def stream():
            seq = 0
            with socket.create_connection(("127.0.0.1", assign.data_port), timeout=5) as data:
                data.sendall(assign.token)
                while not stop.is_set():
                    data.sendall(b"".join(wire.pack_frame(s, s, fields) for s in range(seq, seq + 500)))
                    seq += 500

        streamer = threading.Thread(target=stream)
        streamer.start()
        replies = []
        try:
            session = server.core.get_session("hub_a")
            assert wait_until(lambda: session.records_decoded > 0)
            deadline = time.monotonic() + 1.5
            with control_connect(server) as sock:
                while time.monotonic() < deadline:
                    for kind in (STATUS_LATEST, STATUS_WINDOW):
                        wire.write_message(sock, wire.OP_STATUS, wire.pack_status(kind, "hub_a"))
                        replies.append(wire.read_message(sock)[0])
        finally:
            stop.set()
            streamer.join(timeout=10)
        assert not streamer.is_alive()
        assert len(replies) > 20
        assert set(replies) == {wire.OP_STATUS_OK}

    def stream(self, assign, first_seq, count):
        """Connect to the data port and send count good frames."""
        with socket.create_connection(("127.0.0.1", assign.data_port), timeout=5) as data:
            data.sendall(assign.token)
            for seq in range(first_seq, first_seq + count):
                body = reference_frame(SMALL, [1.0, "x"], seq, 0)
                data.sendall(wire.U32.pack(len(body)) + body)

    def test_string_that_is_not_utf8_is_malformed_and_every_hub_stays_served(self, server):
        _, assign_a = register_over_tcp(server, SMALL, hub="hub_a")
        _, assign_b = register_over_tcp(server, SMALL, hub="hub_b")
        hub_a = server.core.get_session("hub_a")
        hub_b = server.core.get_session("hub_b")
        good = reference_frame(SMALL, [1.0, "ok"], 0, 0)
        bad = reference_frame(SMALL, [1.0, "ab"], 1, 0).replace(b"ab", b"\xff\xfe")
        after = reference_frame(SMALL, [1.0, "ok"], 2, 0)
        with socket.create_connection(("127.0.0.1", assign_a.data_port), timeout=5) as data:
            data.sendall(
                assign_a.token + b"".join(wire.U32.pack(len(f)) + f for f in (good, bad, after))
            )
            assert wait_until(lambda: hub_a.frames_received == 3)
        assert hub_a.frames_malformed == 1
        assert hub_a.records_decoded == 2
        self.stream(assign_b, 0, 5)
        assert wait_until(lambda: hub_b.records_decoded == 5)
        self.stream(assign_a, 3, 5)
        assert wait_until(lambda: hub_a.records_decoded == 7)

    def test_ingest_fault_drops_only_that_connection(self, server, monkeypatch, caplog):
        _, assign_a = register_over_tcp(server, SMALL, hub="hub_a")
        _, assign_b = register_over_tcp(server, SMALL, hub="hub_b")
        hub_a = server.core.get_session("hub_a")
        hub_b = server.core.get_session("hub_b")
        real_ingest = server.core.ingest_batch
        faults = [RuntimeError("decoder fault")]

        def ingest_batch(session, bodies, arrival_ms=None):
            if session is hub_a and faults:
                raise faults.pop()
            return real_ingest(session, bodies, arrival_ms)

        monkeypatch.setattr(server.core, "ingest_batch", ingest_batch)
        with socket.create_connection(("127.0.0.1", assign_a.data_port), timeout=5) as data:
            body = reference_frame(SMALL, [1.0, "x"], 0, 0)
            data.sendall(assign_a.token + wire.U32.pack(len(body)) + body)
            data.settimeout(5)
            try:
                assert data.recv(1) == b""  # dropped
            except ConnectionResetError:
                pass
        assert hub_a.batches_failed == 1
        assert "decoder fault" in caplog.text  # the traceback is logged
        self.stream(assign_b, 0, 5)
        assert wait_until(lambda: hub_b.records_decoded == 5)
        self.stream(assign_a, 1, 5)
        assert wait_until(lambda: hub_a.records_decoded == 5)

    def test_failed_accept_backs_off_then_serves(self, server, monkeypatch):
        _, assign = register_over_tcp(server, SMALL)
        session = server.core.get_session("hub_a")
        real_accept = socket.socket.accept
        failing = True
        calls = 0

        def accept(sock):
            nonlocal calls
            if failing and sock.getsockname()[1] == assign.data_port:
                calls += 1
                raise OSError(errno.EMFILE, "Too many open files")
            return real_accept(sock)

        monkeypatch.setattr(socket.socket, "accept", accept)
        with socket.create_connection(("127.0.0.1", assign.data_port), timeout=5) as data:
            body = reference_frame(SMALL, [1.0, "x"], 0, 0)
            data.sendall(assign.token + wire.U32.pack(len(body)) + body)
            time.sleep(0.5)
            # one try per back-off period, not a loop spinning on a readable listener
            assert 1 <= calls <= 0.5 / ACCEPT_BACKOFF_S + 2
            failing = False
            assert wait_until(lambda: session.records_decoded == 1)

    def test_large_frame_over_many_reads(self, server, tmp_path):
        schema = [("blob", ValueType.STRING)]
        _, assign = register_over_tcp(server, schema)
        big = reference_frame(schema, ["z" * (3 * RECV_BYTES)], 0, 0)
        small = reference_frame(schema, ["y"], 1, 0)
        stream = assign.token + b"".join(wire.U32.pack(len(f)) + f for f in (big, small))
        with socket.create_connection(("127.0.0.1", assign.data_port), timeout=5) as data:
            for pos in range(0, len(stream), 50_000):
                data.sendall(stream[pos : pos + 50_000])
            session = server.core.get_session("hub_a")
            assert wait_until(lambda: session.records_decoded == 2)
        logged = [body for _, body in RecordLog.replay(tmp_path / "data" / "hub_a.log")]
        assert logged == [big, small]
