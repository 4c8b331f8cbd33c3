"""Registration orchestration, rollback, ingest accounting, TCP shell."""

import csv
import errno
import io
import json
import random
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from hubstream import server as server_module
from hubstream import wire
from hubstream.errors import (
    FrameTooShort,
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
)
from hubstream.wrapper import LifecycleState, Strategy, decode_record, serialize_plan

from oracles import random_row, random_schema, reference_frame

ROOT = Path(__file__).resolve().parent.parent


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

    def test_deferred_port_comes_after_every_other_free_port(self):
        alloc = PortAllocator(9000, 9002)
        port = alloc.reserve()
        alloc.release(port)
        alloc.defer(port)
        assert [alloc.reserve() for _ in range(3)] == [9001, 9002, 9000]

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
        assert len(config.token) == 16
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
        config = core.handle_register(doc_bytes(SMALL), reregister=True)
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


class TestStoreOpen:
    """Whatever a crash leaves in the store, the next core opens it."""

    @pytest.mark.parametrize("damage", ["empty", "cut"])
    def test_damaged_plan_file_is_deleted_and_compiled_again(self, tmp_path, caplog, damage):
        core = MiddlewareCore(tmp_path)
        core.handle_register(doc_bytes(SMALL))
        core.shutdown()
        (path,) = (tmp_path / "plans" / "dgcw").glob("*.plan")
        path.write_bytes(b"" if damage == "empty" else path.read_bytes()[:-3])
        reopened = MiddlewareCore(tmp_path)
        assert str(path) in caplog.text
        assert not path.exists()
        reopened.handle_register(doc_bytes(SMALL))
        session = reopened.get_session("hub_a")
        assert session.cache_hit is False
        assert path.read_bytes() == serialize_plan(session.instance.plan)
        reopened.shutdown()

    def test_stray_spsw_plan_file_and_leftover_tmp_are_deleted(self, tmp_path, caplog):
        core = MiddlewareCore(tmp_path, Strategy.SPSW)
        core.handle_register(doc_bytes(SMALL))
        core.shutdown()
        spsw = tmp_path / "plans" / "spsw"
        (generic,) = spsw.glob("*.plan")
        stray = spsw / ("0" * 32 + ".plan")
        stray.write_bytes(generic.read_bytes())
        leftover = tmp_path / "plans" / "dgcw" / ("1" * 32 + ".tmp")
        leftover.write_bytes(b"MSHP")
        reopened = MiddlewareCore(tmp_path, Strategy.SPSW)
        assert str(stray) in caplog.text
        assert list(spsw.iterdir()) == [generic]
        assert not leftover.exists()
        reopened.handle_register(doc_bytes(SMALL))
        assert reopened.get_session("hub_a").cache_hit is False
        reopened.shutdown()

    def test_definition_files_of_a_crashed_core_are_deleted(self, tmp_path):
        crashed = MiddlewareCore(tmp_path)
        crashed.handle_register(doc_bytes(SMALL, hub="hub_a"))
        crashed.handle_register(doc_bytes(SMALL, hub="hub_b"))
        for session in crashed.sessions.values():  # the process died: no shutdown()
            session.log.close()
        core = MiddlewareCore(tmp_path)
        core.handle_register(doc_bytes(SMALL, hub="hub_b"))
        assert core.catalog.live("hub_a") is None
        assert {p.name for p in (tmp_path / "vsd").iterdir()} == {"vs_hub_b.xml"}
        core.shutdown()


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

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("schema", [EIGHT, SMALL], ids=["fixed", "mixed"])
    def test_presence_tag_other_than_0_or_1_is_malformed(self, tmp_path, strategy, schema):
        core, session = self.register(tmp_path, schema=schema, strategy=strategy)
        row = [1.0] * len(EIGHT) if schema is EIGHT else [1.0, "a"]
        good = [reference_frame(schema, row, seq, 0) for seq in range(3)]
        bad = bytearray(good[1])
        bad[16] = 0x02  # the first field's presence tag
        assert core.ingest_batch(session, [good[0], bytes(bad), good[2]], arrival_ms=5) == 2
        assert session.frames_malformed == 1
        assert session.records_decoded == 2
        entries = list(RecordLog.replay(tmp_path / "data" / "hub_a.log"))
        assert entries == [(5, good[0]), (5, good[2])]
        plan = session.instance.plan
        assert [decode_record(plan, body).sequence for _, body in entries] == [0, 2]

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
        assert session.frames_received == 7
        assert session.frames_malformed == 1
        assert session.duplicates_dropped == 1
        entries = list(RecordLog.replay(tmp_path / "data" / "hub_a.log"))
        assert entries == [(77, f) for f in (frames[0], frames[1], frames[2], frames[4], frames[3])]
        plan = session.instance.plan
        assert [decode_record(plan, body).sequence for _, body in entries] == [0, 1, 2, 4, 3]

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

    @pytest.mark.parametrize("torn", [b"\x00" * 5, RecordLog.ARRIVAL.pack(9) + wire.U32.pack(40)])
    def test_torn_tail_raises_typed_after_every_complete_entry(self, tmp_path, torn):
        path = tmp_path / "hub.log"
        log = RecordLog(path)
        log.append(7, b"a" * 16, b"b" * 20)
        log.close()
        path.write_bytes(path.read_bytes() + torn)
        entries = RecordLog.replay(path)
        assert next(entries) == (7, b"a" * 16)
        assert next(entries) == (7, b"b" * 20)
        with pytest.raises(FrameTooShort):
            next(entries)

    @pytest.mark.parametrize("cut", [1, 7, 40], ids=["body_end", "body", "header"])
    def test_torn_tail_is_cut_when_the_store_is_opened(self, tmp_path, caplog, cut):
        """A crash mid-write leaves a torn last entry; the next server on the
        store drops it, so what is appended after it replays."""
        core, session = self.register(tmp_path)
        frames = [reference_frame(SMALL, [float(seq), "v"], seq, seq) for seq in range(4)]
        for seq in range(3):
            core.ingest_frame(session, frames[seq], arrival_ms=seq)
        core.shutdown()
        path = tmp_path / "data" / "hub_a.log"
        whole = path.read_bytes()
        assert len(whole) == 3 * (12 + len(frames[2])) and cut < 12 + len(frames[2])
        path.write_bytes(whole[:-cut])
        core, session = self.register(tmp_path)
        assert f"dropped {12 + len(frames[2]) - cut} bytes" in caplog.text
        core.ingest_frame(session, frames[3], arrival_ms=3)
        assert list(RecordLog.replay(path)) == [(0, frames[0]), (1, frames[1]), (3, frames[3])]

    def test_a_corrupt_length_loses_no_byte_when_the_store_is_opened(self, tmp_path, caplog):
        """A flipped bit in a length in the middle of a log looks like a torn
        entry to recovery, which cuts the log there; the bytes cut are kept
        beside the log, so no good entry after it is destroyed."""
        schema = [("v", ValueType.INT)]
        core, session = self.register(tmp_path, schema)
        frames = [reference_frame(schema, [seq], seq, seq) for seq in range(1000)]
        core.ingest_batch(session, frames, arrival_ms=7)
        core.shutdown()
        path = tmp_path / "data" / "hub_a.log"
        damaged = bytearray(path.read_bytes())
        entry = 12 + len(frames[0])
        damaged[entry + 8] ^= 0x80  # the high byte of the second entry's length
        path.write_bytes(damaged)
        MiddlewareCore(tmp_path)
        torn = tmp_path / "data" / "hub_a.log.torn"
        assert path.read_bytes() + torn.read_bytes() == damaged
        assert len(path.read_bytes()) == entry
        assert str(torn) in caplog.text

    def test_a_whole_log_is_left_as_it_is_when_the_store_is_opened(self, tmp_path, caplog):
        core, session = self.register(tmp_path)
        core.ingest_frame(session, reference_frame(SMALL, [1.0, "v"], 0, 0))
        core.shutdown()
        path = tmp_path / "data" / "hub_a.log"
        before = path.read_bytes()
        MiddlewareCore(tmp_path)
        assert path.read_bytes() == before
        assert "dropped" not in caplog.text

    def test_replay_holds_one_entry_not_the_whole_log(self, tmp_path):
        path = tmp_path / "hub.log"
        log = RecordLog(path)
        for _ in range(20):
            log.append(7, *[b"x" * 88] * 10_000)  # 20 MB in all
        log.close()
        tracemalloc.start()
        try:
            assert sum(1 for _ in RecordLog.replay(path)) == 200_000
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def latest_reply(hub, plan, body):
    """STATUS_LATEST's reply for a session whose newest body is body."""
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["hub_id", "sequence", "timestamp_ms", *plan.field_names])
    if body is not None:
        rec = decode_record(plan, body, hub)
        w.writerow(
            [hub, rec.sequence, rec.timestamp_ms] + ["" if v is None else v for _, v in rec.values]
        )
    return out.getvalue()


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

    PINNED = [("temp", ValueType.DOUBLE), ("count", ValueType.INT), ("mode", ValueType.STRING)]
    PINNED_ROWS = [
        [20.5, 7, "idle"],
        [None, -3, "run, fast"],
        [21.25, None, 'say "hi"'],
        [-0.125, 2**62, None],
        [1e-7, 0, "né"],
    ]

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize(
        "order, latest, window",
        [
            (
                [0, 1, 2, 3],
                "hub_id,sequence,timestamp_ms,temp,count,mode\r\n"
                "hub_a,3,1003,-0.125,4611686018427387904,\r\n",
                "field,op,value\r\ntemp,latest,-0.125\r\n"
                "count,latest,4611686018427387904\r\nmode,latest,\r\n",
            ),
            (
                # out of order, with a resend of 4 carrying other values
                [3, 0, 4, 4, 1, 2],
                "hub_id,sequence,timestamp_ms,temp,count,mode\r\n"
                "hub_a,4,1004,1e-07,0,né\r\n",
                "field,op,value\r\ntemp,latest,1e-07\r\ncount,latest,0\r\nmode,latest,né\r\n",
            ),
        ],
    )
    def test_latest_and_window_replies_pinned(self, tmp_path, strategy, order, latest, window):
        core = MiddlewareCore(tmp_path, strategy)
        core.handle_register(doc_bytes(self.PINNED))
        session = core.get_session("hub_a")
        seen = set()
        for seq in order:
            row = self.PINNED_ROWS[0] if seq in seen else self.PINNED_ROWS[seq]
            seen.add(seq)
            core.ingest_frame(session, reference_frame(self.PINNED, row, seq, 1000 + seq))
        assert core.status_query(STATUS_LATEST, "hub_a") == latest
        assert core.status_query(STATUS_WINDOW, "hub_a") == window

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("shuffled", [False, True], ids=["in_order", "out_of_order"])
    def test_window_values_are_the_latest_record_values(self, tmp_path, strategy, shuffled):
        """Over random streams with resends, STATUS_WINDOW's value column is
        STATUS_LATEST's value columns after every frame."""
        rng = random.Random(41)
        for trial in range(20):
            schema = random_schema(rng, max_fields=6)
            hub = f"hub_{trial}"
            core = MiddlewareCore(tmp_path / hub, strategy)
            core.handle_register(doc_bytes(schema, hub))
            session = core.get_session(hub)
            sequences = list(range(rng.randint(1, 30)))
            if shuffled:
                rng.shuffle(sequences)
            sent = []
            for seq in sequences:
                sent.append(seq)
                if rng.random() < 0.3:
                    sent.append(rng.choice(sent))  # a resend, with other values
            for seq in sent:
                row = random_row(rng, schema)
                core.ingest_frame(session, reference_frame(schema, row, seq, seq * 10))
                latest = list(csv.reader(io.StringIO(core.status_query(STATUS_LATEST, hub))))
                window = list(csv.reader(io.StringIO(core.status_query(STATUS_WINDOW, hub))))
                assert [r[2] for r in window[1:]] == latest[1][3:]
            core.shutdown()

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_latest_is_the_highest_sequence_in_the_log(self, tmp_path, strategy):
        """Over random arrival orders with resends, regressions and junk,
        STATUS_LATEST after each batch renders the logged body with the
        highest sequence number, the first logged of equals."""
        rng = random.Random(67)
        for trial in range(12):
            schema = random_schema(rng, max_fields=6)
            hub = f"hub_{trial}"
            core = MiddlewareCore(tmp_path / hub, strategy)
            core.handle_register(doc_bytes(schema, hub))
            session = core.get_session(hub)
            plan = session.instance.plan
            log_path = tmp_path / hub / "data" / f"{hub}.log"
            top = 0
            for _ in range(40):
                batch = []
                for _ in range(rng.randint(1, 12)):
                    roll = rng.random()
                    if roll < 0.1:
                        batch.append(rng.choice([b"junk", bytes(rng.randrange(40))]))
                        continue
                    if roll < 0.25:
                        seq = rng.randint(max(0, top - 70), top)  # mostly resends
                    elif roll < 0.3:
                        seq = max(0, top - rng.randint(72, 100))  # behind the dedup window
                    else:
                        top += rng.randint(1, 3)
                        seq = rng.randint(max(0, top - 8), top)  # reordered near the front
                    row = random_row(rng, schema)
                    batch.append(reference_frame(schema, row, seq, rng.randrange(2**40)))
                core.ingest_batch(session, batch)
                bodies = [body for _, body in RecordLog.replay(log_path)]
                # max() keeps the first of equal keys
                newest = max(bodies, key=wire.U64.unpack_from) if bodies else None
                assert core.status_query(STATUS_LATEST, hub) == latest_reply(hub, plan, newest)
            assert session.instance.sequence_regressions > 0
            assert session.duplicates_dropped > 0
            core.shutdown()


U64_MAX = 2**64 - 1


@st.composite
def arrivals(draw):
    """Batches in arrival order.  An int is the sequence number of a valid
    frame, bytes are a frame no plan accepts.  Sequences run ahead in small
    steps and large jumps, and come back inside the dedup window (resends
    and late frames) and below it."""
    top = -1
    batches = []
    for _ in range(draw(st.integers(1, 8))):
        batch = []
        for _ in range(draw(st.integers(1, 12))):
            move = draw(st.sampled_from(["ahead", "ahead", "jump", "window", "window", "below", "junk"]))
            if move == "junk":
                batch.append(draw(st.binary(max_size=15)))
                continue
            if move == "ahead":
                seq = top + draw(st.integers(1, 3))
            elif move == "jump":
                seq = top + draw(st.one_of(st.integers(64, 1000), st.integers(2**63, U64_MAX)))
            elif move == "window":
                seq = top - draw(st.integers(0, 63))
            else:
                seq = top - draw(st.integers(64, 130))
            seq = min(max(seq, 0), U64_MAX)
            top = max(top, seq)
            batch.append(seq)
        batches.append(batch)
    return batches


class TestDedupModel:
    """ingest_batch against a plain model of the dedup rule: a sequence at
    least 64 below the highest accepted is a regression, one accepted before
    is a duplicate, any other is stored."""

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("schema", [EIGHT, SMALL], ids=["fixed", "mixed"])
    @seed(2013)
    @settings(max_examples=40, deadline=None)
    @example(batches=[[100, *range(37, 100), 101, 100]])
    @given(batches=arrivals())
    def test_ingest_matches_the_model(self, strategy, schema, batches):
        with tempfile.TemporaryDirectory() as store:
            core = MiddlewareCore(store, strategy)
            core.handle_register(doc_bytes(schema))
            session = core.get_session("hub_a")
            plan = session.instance.plan
            accepted, top, stored, newest = set(), -1, [], None
            duplicates = regressions = junk = sent = 0
            for batch in batches:
                bodies = []
                for item in batch:
                    if isinstance(item, bytes):
                        junk += 1
                        bodies.append(item)
                        continue
                    # the arrival index as timestamp tells every copy apart
                    body = reference_frame(schema, random_row(random.Random(sent), schema), item, sent)
                    if top >= 0 and item <= top - 64:
                        regressions += 1
                    elif item in accepted:
                        duplicates += 1
                    else:
                        accepted.add(item)
                        stored.append(body)
                        if item > top:
                            top, newest = item, body
                    bodies.append(body)
                    sent += 1
                core.ingest_batch(session, bodies, arrival_ms=1)
                assert session.records_decoded == len(stored)
                assert session.duplicates_dropped == duplicates
                assert session.instance.sequence_regressions == regressions
                assert session.frames_malformed == junk + regressions
                assert core.status_query(STATUS_LATEST, "hub_a") == latest_reply("hub_a", plan, newest)
            logged = [body for _, body in RecordLog.replay(Path(store) / "data" / "hub_a.log")]
            core.shutdown()
        assert logged == stored
        sequences = [wire.U64.unpack_from(body)[0] for body in logged]
        assert len(set(sequences)) == len(sequences)


class DiskFull:
    """A record log's file on a disk with room for `room` more bytes: a write
    stores what fits and then raises ENOSPC.  room None: no limit."""

    def __init__(self, fh, room):
        self._fh = fh
        self.room = room

    def write(self, data):
        if self.room is None:
            return self._fh.write(data)
        written = self._fh.write(data[: self.room])
        self._fh.flush()
        self.room -= written
        if written < len(data):
            raise OSError(errno.ENOSPC, "No space left on device")
        return written

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestFailedAppend:
    """A batch whose record-log append fails leaves the log and the session
    as they were, so a resend of it is stored."""

    def register(self, core):
        core.handle_register(doc_bytes(EIGHT), reregister=True)
        return core.get_session("hub_a")

    def frames(self, seqs):
        return [reference_frame(EIGHT, [float(seq)] * 8, seq, seq) for seq in seqs]

    def logged(self, tmp_path):
        return [body for _, body in RecordLog.replay(tmp_path / "data" / "hub_a.log")]

    def test_the_session_is_as_it_was(self, tmp_path, monkeypatch):
        core = MiddlewareCore(tmp_path)
        session = self.register(core)
        assert core.ingest_batch(session, self.frames([100, 101])) == 2
        before = (session.records_decoded, session.frames_received, session.instance.newest)

        def append(*_):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(session.log, "append", append)
        with pytest.raises(OSError):
            core.ingest_batch(session, self.frames(range(102, 110)))
        monkeypatch.undo()
        assert (session.records_decoded, session.frames_received, session.instance.newest) == before
        assert session.records_decoded == len(self.logged(tmp_path))
        latest = list(csv.reader(io.StringIO(core.status_query(STATUS_LATEST, "hub_a"))))
        logged_sequences = [wire.U64.unpack_from(body)[0] for body in self.logged(tmp_path)]
        assert int(latest[1][1]) in logged_sequences
        # the resend, and late frames the failed batch had moved the window past
        resend = self.frames([*range(102, 110), *range(90, 100)])
        assert core.ingest_batch(session, resend) == 18
        assert session.duplicates_dropped == 0
        assert self.logged(tmp_path) == self.frames([100, 101]) + resend

    @pytest.mark.parametrize("room", [0, 200, 250], ids=["nothing", "entry_boundary", "mid_entry"])
    def test_the_log_is_as_it_was(self, tmp_path, caplog, room):
        core = MiddlewareCore(tmp_path)
        session = self.register(core)
        core.ingest_batch(session, self.frames([100, 101]))
        assert len(self.logged(tmp_path)) == 2 and 12 + len(self.frames([0])[0]) == 100
        session.log._fh = disk = DiskFull(session.log._fh, room)
        with pytest.raises(OSError):
            core.ingest_batch(session, self.frames(range(102, 110)))
        assert self.logged(tmp_path) == self.frames([100, 101])
        disk.room = None  # room again
        assert core.ingest_batch(session, self.frames(range(102, 110))) == 8
        assert core.ingest_batch(session, self.frames([110, 111])) == 2
        session = self.register(core)
        assert core.ingest_batch(session, self.frames([112, 113])) == 2
        core.shutdown()
        MiddlewareCore(tmp_path)
        assert self.logged(tmp_path) == self.frames(range(100, 114))
        assert not (tmp_path / "data" / "hub_a.log.torn").exists()
        assert "dropped" not in caplog.text


FSIZE_PROBE = """
import json, resource, signal, sys
sys.path[:0] = sys.argv[1:3]
from pathlib import Path
from oracles import reference_frame
from hubstream.sdd import SensorDescriptor, ValueType, build_musdd, serialize_musdd
from hubstream.server import MiddlewareCore, RecordLog

store, cap = Path(sys.argv[3]), int(sys.argv[4])
schema = [(f"s{i}", ValueType.DOUBLE) for i in range(8)]  # 100-byte log entries
doc = serialize_musdd(build_musdd(
    "hub_a", None, [SensorDescriptor(name=n, value_type=t, sample_period_ms=100) for n, t in schema]
))
frames = lambda seqs: [reference_frame(schema, [float(s)] * 8, s, s) for s in seqs]
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # so a write past the cap fails with EFBIG
core = MiddlewareCore(store)
core.handle_register(doc)
session = core.get_session("hub_a")
soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
resource.setrlimit(resource.RLIMIT_FSIZE, (cap, hard))
seq = 0
try:
    while True:
        core.ingest_batch(session, frames(range(seq, seq + 100)))
        seq += 100
except OSError as exc:
    error = exc.errno
resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
log = store / "data" / "hub_a.log"
failed = [session.records_decoded, session.instance.last_sequence, log.stat().st_size]
core.handle_register(doc, reregister=True)
core.ingest_batch(core.get_session("hub_a"), frames(range(seq, seq + 500)))
core.shutdown()
MiddlewareCore(store)
print(json.dumps({
    "error": error,
    "failed": failed,
    "replayed": [int.from_bytes(body[:8], "big") for _, body in RecordLog.replay(log)],
    "torn": (store / "data" / "hub_a.log.torn").exists(),
}))
"""


@pytest.mark.parametrize("cap", [200_000, 200_050], ids=["entry_boundary", "mid_entry"])
def test_a_write_past_the_file_size_limit_leaves_the_log_as_it_was(tmp_path, cap):
    """A child process caps its own file size with RLIMIT_FSIZE, so a log
    write fails part-way as it would on a full disk."""
    resource = pytest.importorskip("resource", reason="RLIMIT_FSIZE needs the POSIX resource module")
    if not hasattr(signal, "SIGXFSZ"):
        pytest.skip("no SIGXFSZ on this platform, so a write past RLIMIT_FSIZE cannot be made to fail")
    hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
    if hard != resource.RLIM_INFINITY and hard < 2 * cap:
        pytest.skip(f"the hard file size limit ({hard} bytes) is below what the probe needs")
    proc = subprocess.run(
        [sys.executable, "-c", FSIZE_PROBE, str(ROOT / "src"), str(ROOT / "tests"), str(tmp_path), str(cap)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["error"] == errno.EFBIG
    assert result["failed"] == [2000, 1999, 200_000]
    assert result["replayed"] == list(range(2500))
    assert result["torn"] is False


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


def test_stop_is_prompt_after_a_registration(tmp_path):
    srv = MiddlewareServer(
        tmp_path, Strategy.DGCW, control_port=0, port_range=(17100, 17140)
    ).start()
    try:
        assert register_over_tcp(srv, SMALL)[0] == wire.OP_ASSIGN
    finally:
        t0 = time.perf_counter()
        srv.stop()
        elapsed = time.perf_counter() - t0
    assert elapsed < 0.05
    assert not any(t.name == "server-loop" for t in threading.enumerate())


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
        plan = session.instance.plan
        assert [decode_record(plan, body).values for body in logged] == [
            (("temp", float(s)), ("mode", "m" * s)) for s in range(40)
        ]

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
        def register_and_stream(hub):
            opcode, assign = register_over_tcp(server, SMALL, hub=hub)
            assert opcode == wire.OP_ASSIGN
            data = socket.create_connection(("127.0.0.1", assign.data_port), timeout=5)
            body = reference_frame(SMALL, [1.0, "x"], 0, 0)
            data.sendall(assign.token + wire.U32.pack(len(body)) + body)
            return data

        conns = [register_and_stream("hub_0")]
        try:
            with_one = threading.active_count()
            conns += [register_and_stream(f"hub_{i}") for i in range(1, 20)]
            assert wait_until(
                lambda: all(s.records_decoded == 1 for s in server.core.sessions.values())
            )
            assert len(server.core.sessions) == 20
            assert threading.active_count() == with_one
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
            server.teardown("hub_a")
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

    def test_a_port_held_elsewhere_is_handed_out_last(self, server):
        blocker = socket.create_server(("127.0.0.1", 17100))
        try:
            failed = register_over_tcp(server, SMALL)
            opcode, assign = register_over_tcp(server, SMALL)
        finally:
            blocker.close()
        assert failed[0] == wire.OP_NACK
        assert opcode == wire.OP_ASSIGN
        assert assign.data_port == 17101
        assert register_over_tcp(server, SMALL, hub="hub_b")[1].data_port == 17102

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

    def status_round_trip(self, sock, kind=STATUS_LIST, hub_id=""):
        wire.write_message(sock, wire.OP_STATUS, wire.pack_status(kind, hub_id))
        return wire.read_message(sock)

    def test_thread_count_does_not_grow_with_control_connections(self, server):
        with_none = threading.active_count()
        held = []
        try:
            for count in (1, 50):
                while len(held) < count:
                    held.append(control_connect(server))
                for sock in held:  # every connection is being served
                    assert self.status_round_trip(sock)[0] == wire.OP_STATUS_OK
                assert threading.active_count() == with_none
        finally:
            for sock in held:
                sock.close()

    def test_stop_closes_held_control_connections(self, server):
        held = [control_connect(server) for _ in range(2)]
        try:
            for sock in held:
                assert self.status_round_trip(sock)[0] == wire.OP_STATUS_OK
            server.stop()
            assert not any(t.name == "server-loop" for t in threading.enumerate())
            for sock in held:
                try:
                    assert sock.recv(1) == b""
                except ConnectionResetError:
                    pass
            # nothing answers a message sent after stop()
            try:
                wire.write_message(held[0], wire.OP_STATUS, wire.pack_status(STATUS_LIST))
                assert held[0].recv(1) == b""
            except (BrokenPipeError, ConnectionResetError):
                pass
        finally:
            for sock in held:
                sock.close()

    def test_pipelined_and_dribbled_messages_are_answered_in_order(self, server):
        with control_connect(server) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(
                wire.pack_message(wire.OP_STATUS, wire.pack_status(STATUS_LIST))
                + wire.pack_message(wire.OP_STATUS, wire.pack_status(STATUS_LATEST, "ghost"))
            )
            register = wire.pack_message(wire.OP_REGISTER, wire.pack_register(doc_bytes(SMALL)))
            for i in range(len(register)):
                sock.sendall(register[i : i + 1])
                time.sleep(0.0005)
            replies = [wire.read_message(sock) for _ in range(3)]
        assert [opcode for opcode, _ in replies] == [
            wire.OP_STATUS_OK, wire.OP_NACK, wire.OP_ASSIGN
        ]
        assert replies[0][1].decode().splitlines() == ["hub_id,state,records_decoded,fingerprint"]
        assert wire.unpack_nack(replies[1][1])[0] == wire.NACK_UNKNOWN_HUB
        assert wire.unpack_assign(replies[2][1]).token == server.core.get_session("hub_a").token

    def test_reregistration_closes_the_open_data_connection(self, server):
        _, assign = register_over_tcp(server, SMALL)
        old = server.core.get_session("hub_a")
        body = reference_frame(SMALL, [1.0, "x"], 0, 0)
        with socket.create_connection(("127.0.0.1", assign.data_port), timeout=5) as data:
            data.sendall(assign.token + wire.U32.pack(len(body)) + body)
            assert wait_until(lambda: old.records_decoded == 1)
            opcode, again = register_over_tcp(server, EIGHT, reregister=True)
            assert opcode == wire.OP_ASSIGN
            try:
                assert data.recv(1) == b""
            except ConnectionResetError:
                pass
        assert old.state is SessionState.TORN_DOWN
        fresh = server.core.get_session("hub_a")
        body = reference_frame(EIGHT, [float(i) for i in range(8)], 0, 0)
        with socket.create_connection(("127.0.0.1", again.data_port), timeout=5) as data:
            data.sendall(again.token + wire.U32.pack(len(body)) + body)
            assert wait_until(lambda: fresh.records_decoded == 1)

    @pytest.mark.parametrize("bad_length", [0, wire.MAX_MESSAGE + 1])
    def test_bad_control_length_nacks_then_closes(self, server, bad_length):
        with control_connect(server) as sock:
            sock.sendall(
                wire.pack_message(wire.OP_STATUS, wire.pack_status(STATUS_LIST))
                + wire.U32.pack(bad_length)
            )
            assert wire.read_message(sock)[0] == wire.OP_STATUS_OK
            opcode, payload = wire.read_message(sock)
            assert opcode == wire.OP_NACK
            assert wire.unpack_nack(payload)[0] == wire.NACK_MALFORMED
            try:
                assert sock.recv(1) == b""
            except ConnectionResetError:
                pass

    def test_client_that_does_not_read_its_replies_stalls_nothing(self, server):
        wide = [(f"w{i}", ValueType.STRING) for i in range(256)]
        _, assign_wide = register_over_tcp(server, wide, hub="wide")
        _, assign_b = register_over_tcp(server, SMALL, hub="hub_b")
        wide_frame = reference_frame(wide, ["v" * 1000] * 256, 0, 0)
        with socket.create_connection(("127.0.0.1", assign_wide.data_port), timeout=5) as data:
            data.sendall(assign_wide.token + wire.U32.pack(len(wide_frame)) + wide_frame)
            wide_session = server.core.get_session("wide")
            assert wait_until(lambda: wide_session.records_decoded == 1)
        # even requests ask for the wide hub (a ~257 KB reply each, 25 MB in
        # all, more than the socket buffers hold), odd ones for a hub that
        # does not exist, so the order of the replies shows
        requests = [("wide" if i % 2 == 0 else f"ghost_{i}") for i in range(200)]
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(10)
        with sock:
            sock.connect(("127.0.0.1", server.control_port))
            sock.sendall(b"".join(
                wire.pack_message(wire.OP_STATUS, wire.pack_status(STATUS_LATEST, hub))
                for hub in requests
            ))
            hub_b = server.core.get_session("hub_b")
            self.stream(assign_b, 0, 50)
            assert wait_until(lambda: hub_b.records_decoded == 50)
            for i, hub in enumerate(requests):
                opcode, payload = wire.read_message(sock)
                if hub == "wide":
                    assert opcode == wire.OP_STATUS_OK
                    assert payload.decode().splitlines()[1].startswith("wide,0,0,")
                else:
                    assert opcode == wire.OP_NACK
                    assert f"'{hub}'" in wire.unpack_nack(payload)[1]

    def test_teardown_from_another_thread_beside_a_registration(self, tmp_path, monkeypatch):
        """A teardown asked for from another thread while the loop is inside
        a registration runs on the loop once that registration has replied,
        and returns after it."""
        srv = MiddlewareServer(
            tmp_path, Strategy.DGCW, control_port=0, port_range=(17100, 17140)
        ).start()
        stuck = False
        try:
            _, assign_a = register_over_tcp(srv, SMALL, hub="hub_a")
            parsing = threading.Event()
            seen_by_teardown = []
            drop = srv.core.on_teardown

            def hook(session):
                seen_by_teardown.append(set(srv.core.sessions))
                drop(session)

            def parse(raw):
                parsing.set()
                # stay inside the registration until the teardown is queued
                assert wait_until(lambda: srv._requests, timeout=5)
                return real_parse(raw)

            real_parse = server_module.parse_musdd
            monkeypatch.setattr(server_module, "parse_musdd", parse)
            srv.core.on_teardown = hook
            replies = []
            registering = threading.Thread(
                target=lambda: replies.append(register_over_tcp(srv, SMALL, hub="hub_b")),
                daemon=True,
            )
            registering.start()
            assert parsing.wait(5)
            teardown = threading.Thread(target=srv.teardown, args=("hub_a",), daemon=True)
            teardown.start()
            teardown.join(10)
            registering.join(10)
            stuck = teardown.is_alive() or registering.is_alive()
            assert not stuck
            assert replies[0][0] == wire.OP_ASSIGN
            assert seen_by_teardown == [{"hub_b"}]  # hub_b's registration came first
            assert set(srv.core.sessions) == {"hub_b"}
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", assign_a.data_port), timeout=5).close()
        finally:
            if not stuck:  # stop() would wait for a stuck loop too
                srv.stop()

    def test_same_hub_registering_on_two_connections_at_once(self, server, monkeypatch):
        """Two clients send REGISTER for one hub, both before either reads:
        one gets ASSIGN, the other NameCollision, and nothing leaks."""
        created = []

        def counting_instantiate(plan, hub_id):
            created.append(real_instantiate(plan, hub_id))
            return created[-1]

        real_instantiate = server_module.instantiate
        monkeypatch.setattr(server_module, "instantiate", counting_instantiate)
        hubs = [f"hub_{i}" for i in range(20)]
        for hub in hubs:
            socks = [control_connect(server) for _ in range(2)]
            try:
                message = wire.pack_register(doc_bytes(SMALL, hub), False)
                for sock in socks:
                    wire.write_message(sock, wire.OP_REGISTER, message)
                replies = [wire.read_message(sock) for sock in socks]
            finally:
                for sock in socks:
                    sock.close()
            opcodes = sorted(opcode for opcode, _ in replies)
            assert opcodes == sorted([wire.OP_ASSIGN, wire.OP_NACK]), hub
            (nack,) = [payload for opcode, payload in replies if opcode == wire.OP_NACK]
            assert wire.unpack_nack(nack)[0] == wire.NACK_NAME_COLLISION
        assert set(server.core.sessions) == set(hubs)
        assert server.core.ports.active_count() == len(hubs)
        assert [i.hub_id for i in created] == hubs
        assert all(i.state is LifecycleState.RUNNING for i in created)
        definitions = {p.name for p in (server.core.store_dir / "vsd").iterdir()}
        assert definitions == {f"vs_{hub}.xml" for hub in hubs}

    def test_teardown_of_an_unknown_hub_raises_on_the_caller(self, server):
        with pytest.raises(UnknownHub):
            server.teardown("nobody")
        with control_connect(server) as sock:
            wire.write_message(sock, wire.OP_STATUS, wire.pack_status(STATUS_LIST))
            opcode, _ = wire.read_message(sock)
        assert opcode == wire.OP_STATUS_OK
