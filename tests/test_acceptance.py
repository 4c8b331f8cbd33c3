"""Acceptance gate: one test per promised behavior, each printing a
single PASS/FAIL line (echoed in the terminal summary by conftest, and
visible inline with -s or -rA).

The long-running entries are real: the end-to-end soak streams three hubs
for a full minute of wall time, and the decode comparison chews through a
million records per timed pass.
"""

import random
import time

import pytest

from hubstream.bench import (
    bench_config_time,
    bench_decode,
    bench_energy,
    bench_plugin_storage,
    bench_storage,
    linear_fit,
    spearman_rho,
)
from hubstream.errors import IllegalTransition
from hubstream.hub import GracePolicy, SensorHub, SimClock, StreamEncoder
from hubstream.sdd import SensorDescriptor, ValueType, build_musdd, parse_musdd, serialize_musdd
from hubstream.server import MiddlewareServer, RecordLog
from hubstream.simsensors import SimKind, SimSpec, make_sim_plugin
from hubstream.wrapper import Strategy, WrapperInstance, compile_plan, decode_record

from oracles import (
    LIFECYCLE_EVENTS,
    lifecycle_oracle,
    random_row,
    random_schema,
    reference_frame,
)


REPORTED_LINES: list[str] = []


def report(name: str, ok: bool, detail: str) -> None:
    line = f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    REPORTED_LINES.append(line)
    print("\n" + line)
    assert ok, f"{name}: {detail}"


def doc_for(schema, hub="hub_a"):
    return build_musdd(
        hub, None, [SensorDescriptor(n, t, 100) for n, t in schema]
    )


class TestAcceptance:
    def test_01_strategy_equivalence(self):
        rng = random.Random(20_240_817)
        pairs = 10_000
        t0 = time.monotonic()
        for i in range(pairs):
            schema = random_schema(rng, max_fields=32)
            row = random_row(rng, schema, null_rate=0.2)
            frame = reference_frame(schema, row, i, i * 10)
            doc = doc_for(schema)
            spsw = decode_record(compile_plan(doc, Strategy.SPSW), frame)
            dgcw = decode_record(compile_plan(doc, Strategy.DGCW), frame)
            assert spsw == dgcw, f"pair {i} diverged: {spsw!r} vs {dgcw!r}"
        elapsed = time.monotonic() - t0
        report(
            "01 strategy-equivalence",
            elapsed < 60,
            f"{pairs} random schema/frame pairs identical in {elapsed:.1f}s (limit 60s)",
        )

    def test_02_decode_time_ordering(self):
        t0 = time.monotonic()
        wins = []
        medians = []
        for _ in range(3):
            rep = bench_decode(field_count=8, record_count=1_000_000, reps=3)
            by_metric = {row.metric: row.median for row in rep.rows}
            spsw, dgcw = by_metric["spsw_decode"], by_metric["dgcw_decode"]
            medians.append((spsw, dgcw))
            wins.append(dgcw <= spsw)
        elapsed = time.monotonic() - t0
        detail = (
            f"{sum(wins)}/3 runs with dgcw median <= spsw median "
            f"{[(f'{s:.0f}ns', f'{d:.0f}ns') for s, d in medians]} in {elapsed:.0f}s"
        )
        report("02 decode-time-ordering", all(wins) and elapsed < 300, detail)

    def test_03_configuration_time_shape(self):
        sizes = (1, 2, 4, 8, 16, 32, 64)
        t0 = time.monotonic()
        rep = bench_config_time(field_counts=sizes, strategy=Strategy.DGCW, reps=45)
        elapsed = time.monotonic() - t0
        cold = dict(rep.medians("dgcw_cold_register"))
        warm = dict(rep.medians("dgcw_warm_register"))
        rho = spearman_rho(sizes, [cold[n] for n in sizes])
        warm_faster = all(warm[n] < cold[n] for n in sizes)
        report(
            "03 configuration-time-shape",
            rho > 0.8 and warm_faster and elapsed < 120,
            f"cold spearman rho={rho:.3f} (need >0.8), "
            f"warm<cold at all sizes={warm_faster}, {elapsed:.0f}s",
        )

    def test_04_storage_scaling(self):
        t0 = time.monotonic()
        rep = bench_storage(schema_counts=tuple(range(1, 101)))
        elapsed = time.monotonic() - t0
        dgcw = rep.medians("dgcw_store")
        spsw = rep.medians("spsw_store")
        _, _, r2 = linear_fit([x for x, _ in dgcw], [y for _, y in dgcw])
        spsw_constant = len({y for _, y in spsw}) == 1
        report(
            "04 storage-scaling",
            r2 >= 0.99 and spsw_constant and elapsed < 60,
            f"dgcw r2={r2:.4f} over N=1..100 (need >=0.99), "
            f"spsw constant={spsw_constant}, {elapsed:.0f}s",
        )

    def test_05_plugin_storage(self):
        t0 = time.monotonic()
        rep = bench_plugin_storage(plugin_counts=tuple(range(1, 16)))
        elapsed = time.monotonic() - t0
        by_metric = {row.metric: row.median for row in rep.rows}
        r2 = by_metric["bundle_fit_r2"]
        intercept = by_metric["bundle_fit_intercept"]
        report(
            "05 plugin-storage",
            r2 >= 0.99 and intercept > 0 and elapsed < 30,
            f"r2={r2:.4f} (need >=0.99), intercept={intercept:.0f}B (need >0), "
            f"{elapsed:.1f}s",
        )

    def test_06_communication_model(self):
        rates = (1, 2, 5, 10, 20)
        rep = bench_energy(rates_hz=rates, policies=("none", "delta:0.5"), duration_s=60)
        none_bytes = dict(rep.medians("bytes[none]"))
        delta_bytes = dict(rep.medians("bytes[delta:0.5]"))
        ratios = [none_bytes[r] / r for r in rates]
        spread = max(ratios) - min(ratios)
        delta_small = all(delta_bytes[r] < 0.05 * none_bytes[r] for r in rates)
        worst = max(delta_bytes[r] / none_bytes[r] for r in rates)
        report(
            "06 communication-model",
            spread < 1e-9 and delta_small,
            f"bytes/rate spread={spread:.2e} (need <1e-9), "
            f"delta/none worst={worst:.3f} (need <0.05)",
        )

    def test_07_end_to_end_soak(self, tmp_path):
        hubs_n, sensors_n, rate_hz, duration_s = 3, 8, 10, 60
        server = MiddlewareServer(
            tmp_path, Strategy.DGCW, control_port=0, port_range=(17600, 17660)
        ).start()
        hubs = []
        t0 = time.monotonic()
        try:
            for h in range(hubs_n):
                hub = SensorHub(f"soak_hub_{h}", ("127.0.0.1", server.control_port))
                for i in range(sensors_n):
                    hub.register_plugin(
                        make_sim_plugin(
                            SimSpec(
                                kind=SimKind.SINE,
                                name=f"sig_{i:02d}",
                                value_type=ValueType.DOUBLE,
                                period_ms=1000 // rate_hz,
                                seed=h * 100 + i,
                                mean=20.0,
                                amplitude=5.0,
                            )
                        )
                    )
                hubs.append(hub.start())
            time.sleep(duration_s)
            for hub in hubs:
                hub.stop()

            lost = {}
            type_ok = True
            for hub in hubs:
                session = server.core.get_session(hub.hub_id)
                deadline = time.monotonic() + 20
                while (
                    session.frames_received < hub.frames_sent
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.05)
                assert session.frames_malformed == 0
                assert hub.queue_dropped == 0
                lost[hub.hub_id] = (
                    hub.frames_enqueued - session.records_decoded
                )
                # every stored record, both in memory and in the log
                for record in session.window_buffer:
                    for _, value in record.values:
                        type_ok = type_ok and isinstance(value, float)
                log_path = tmp_path / "data" / f"{hub.hub_id}.log"
                replayed = sum(1 for _ in RecordLog.replay(log_path))
                assert replayed == session.records_decoded
        finally:
            for hub in hubs:
                hub.stop()
            server.stop()
        elapsed = time.monotonic() - t0
        total = sum(lost.values())
        report(
            "07 end-to-end-soak",
            total == 0 and type_ok,
            f"{hubs_n} hubs x {sensors_n} sensors @ {rate_hz}Hz for {duration_s}s: "
            f"lost={lost}, all doubles={type_ok}, {elapsed:.0f}s",
        )

    def _grace_run(self, tmp_path, absent_ms):
        clock = SimClock()
        server = MiddlewareServer(
            tmp_path, Strategy.DGCW, control_port=0, port_range=(17700, 17740)
        ).start()
        try:
            hub = SensorHub(
                "grace_hub",
                ("127.0.0.1", server.control_port),
                grace_policy=GracePolicy(null_grace_ms=30_000),
                clock=clock,
            )
            hub.register_plugin(
                make_sim_plugin(
                    SimSpec(
                        kind=SimKind.CONST,
                        name="steady",
                        value_type=ValueType.DOUBLE,
                        period_ms=1000,
                        mean=20.0,
                    )
                )
            )
            hub.register_plugin(
                make_sim_plugin(
                    SimSpec(
                        kind=SimKind.FLAKY,
                        name="flaky",
                        value_type=ValueType.DOUBLE,
                        period_ms=1000,
                        inner=SimKind.CONST,
                        mean=5.0,
                        dropout_windows=((2_000, 2_000 + absent_ms),),
                    ),
                    clock=clock,
                )
            )
            hub.start()
            deadline = time.monotonic() + 10
            while hub.registration_count == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            for _ in range(160):  # 80 virtual seconds
                clock.advance(500)
                time.sleep(0.01)
            time.sleep(0.5)
            hub.stop()
            session = server.core.get_session("grace_hub")
            fields = [f.name for f in session.instance.plan.field_layout]
            return hub.reregistrations, fields
        finally:
            server.stop()

    def test_08_null_grace_policy(self, tmp_path):
        t0 = time.monotonic()
        short_reregs, short_fields = self._grace_run(tmp_path / "short", 5_000)
        long_reregs, long_fields = self._grace_run(tmp_path / "long", 35_000)
        elapsed = time.monotonic() - t0
        ok = (
            short_reregs == 0
            and short_fields == ["steady", "flaky"]
            and long_reregs == 1
            and long_fields == ["steady"]
        )
        report(
            "08 null-grace-policy",
            ok,
            f"absent 5s: reregs={short_reregs} fields={short_fields}; "
            f"absent 35s: reregs={long_reregs} fields={long_fields}; "
            f"{elapsed:.0f}s (simulated clock)",
        )

    def test_09_lifecycle_against_reference_table(self):
        rng = random.Random(1912)
        schema = [("f", ValueType.INT)]
        plan = compile_plan(doc_for(schema), Strategy.DGCW)
        sequences = 10_000
        t0 = time.monotonic()
        for _ in range(sequences):
            events = [
                rng.choice(LIFECYCLE_EVENTS) for _ in range(rng.randrange(0, 12))
            ]
            inst = WrapperInstance(plan, "hub_a")
            seq = 0
            for event, (expect_ok, expect_state) in zip(
                events, lifecycle_oracle(events)
            ):
                try:
                    if event == "on_stream_element":
                        inst.on_stream_element(reference_frame(schema, [1], seq, 0))
                        seq += 1
                    else:
                        getattr(inst, event)()
                    accepted = True
                except IllegalTransition:
                    accepted = False
                assert accepted == expect_ok, (events, event)
                assert inst.state.value == expect_state, (events, event)
        elapsed = time.monotonic() - t0
        report(
            "09 lifecycle-reference",
            elapsed < 10,
            f"{sequences} random event sequences match the table in {elapsed:.1f}s",
        )

    def test_10_round_trips_byte_exact(self):
        rng = random.Random(77)
        t0 = time.monotonic()
        for _ in range(1000):
            schema = random_schema(rng, max_fields=10)
            sensors = [
                SensorDescriptor(
                    n, t, rng.randrange(1, 60_000),
                    unit=rng.choice([None, "c", "pa", "m/s"]),
                )
                for n, t in schema
            ]
            doc = build_musdd(f"hub_{rng.randrange(1000)}", None, sensors)
            blob = serialize_musdd(doc)
            again = parse_musdd(blob)
            assert again == doc
            assert serialize_musdd(again) == blob

        for i in range(1000):
            schema = random_schema(rng, max_fields=10)
            row = random_row(rng, schema)
            plan = compile_plan(doc_for(schema), Strategy.DGCW)
            encoder = StreamEncoder(tuple(schema))
            original = encoder.encode(i, i * 7, dict(zip((n for n, _ in schema), row)))
            record = decode_record(plan, original[4:])
            re_encoded = encoder.encode(
                record.sequence, record.timestamp_ms, dict(record.values)
            )
            assert re_encoded == original
        elapsed = time.monotonic() - t0
        report(
            "10 round-trips",
            elapsed < 10,
            f"1000 document + 1000 frame round trips byte-exact in {elapsed:.1f}s",
        )
