"""Desk-scale benchmarks of the middleware: decode throughput for the two
wrapper strategies, registration latency vs schema width, plan-store and
plugin-bundle storage growth, bytes-on-wire vs sampling rate under each
filter policy, and a live end-to-end run.

Every report is a flat table with the fixed column set
``scenario,metric,unit,x,median,min,max,reps`` so downstream plotting
never needs scenario-specific parsing.  Timing rows are medians over at
least ten repetitions with min/max retained.  Benchmarks that compare
strategies first verify the strategies produce identical output on the
exact same input; we never time divergent work.

Numbers from the original evaluation of this architecture (a 2012-era
phone talking to a JVM server) are printed in each report's footnotes
purely for orientation; shapes and orderings are what this module
asserts, magnitudes are hardware-bound.
"""

from __future__ import annotations

import gc
import platform
import statistics
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from .hub import FilterEngine, FilterPolicy, StreamEncoder
from .sdd import SensorDescriptor, ValueType, build_musdd, serialize_musdd
from .server import MiddlewareCore
from .simsensors import SimKind, SimSpec, serialize_plugin_bundle
from .wrapper import Strategy, compile_plan, decode_record

__all__ = [
    "BenchRow",
    "BenchReport",
    "write_csv",
    "percentage_of_baseline",
    "spearman_rho",
    "linear_fit",
    "bench_decode",
    "bench_config_time",
    "bench_storage",
    "bench_plugin_storage",
    "bench_energy",
    "bench_e2e",
    "REFERENCE_FOOTNOTES",
]

CSV_HEADER = "scenario,metric,unit,x,median,min,max,reps"

REFERENCE_FOOTNOTES = (
    "reference points from the original evaluation (2012-era handset + JVM "
    "server), for orientation only:",
    "  processing time: compiled decode up to 18% faster than generic interpretation",
    "  wrapper generation: 70-120 ms depending on schema complexity",
    "  generated-code size: about 22% smaller than the generic wrapper",
    "  plugin metadata baseline: about 20 KB before the first plugin",
)


@dataclass(frozen=True)
class BenchRow:
    scenario: str
    metric: str
    unit: str
    x: float
    median: float
    min: float
    max: float
    reps: int


@dataclass
class BenchReport:
    scenario: str
    environment: str = field(default_factory=lambda: _environment_note())
    rows: list[BenchRow] = field(default_factory=list)
    footnotes: tuple[str, ...] = REFERENCE_FOOTNOTES

    def add(self, metric: str, unit: str, x: float, samples: list[float]) -> None:
        self.rows.append(
            BenchRow(
                scenario=self.scenario,
                metric=metric,
                unit=unit,
                x=x,
                median=statistics.median(samples),
                min=min(samples),
                max=max(samples),
                reps=len(samples),
            )
        )

    def medians(self, metric: str) -> list[tuple[float, float]]:
        return [(row.x, row.median) for row in self.rows if row.metric == metric]

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows:
            lines.append(
                f"{row.scenario},{row.metric},{row.unit},{_num(row.x)},"
                f"{_num(row.median)},{_num(row.min)},{_num(row.max)},{row.reps}"
            )
        return "\n".join(lines) + "\n"


def _environment_note() -> str:
    return (
        f"python {platform.python_version()} on {platform.system().lower()}/"
        f"{platform.machine()}; memory via tracemalloc (live-object bytes)"
    )


def _num(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def write_csv(report: BenchReport, path) -> None:
    Path(path).write_text(report.to_csv(), encoding="utf-8")


def percentage_of_baseline(
    report: BenchReport, baseline_tag: str = "spsw", subject_tag: str = "dgcw"
) -> list[tuple[str, float, float]]:
    """Post-processing view: subject medians as a percentage of the
    baseline's, per metric suffix and x.  Raw rows mix units (ns, bytes,
    ms); this view normalizes each against its own baseline, with the
    baseline at 100."""
    baselines = {
        (row.metric.removeprefix(baseline_tag + "_"), row.x): row.median
        for row in report.rows
        if row.metric.startswith(baseline_tag + "_")
    }
    out = []
    for row in report.rows:
        if not row.metric.startswith(subject_tag + "_"):
            continue
        key = (row.metric.removeprefix(subject_tag + "_"), row.x)
        base = baselines.get(key)
        if base:
            out.append((key[0], row.x, 100.0 * row.median / base))
    return out


# --- small stats ---------------------------------------------------------------

def _ranks(values) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def spearman_rho(xs, ys) -> float:
    """Rank correlation with average ranks for ties."""
    rx, ry = _ranks(list(xs)), _ranks(list(ys))
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (
        sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
    ) ** 0.5
    if den == 0:
        return 0.0
    return num / den


def linear_fit(xs, ys) -> tuple[float, float, float]:
    """Least-squares line: (slope, intercept, r_squared).  A flat exact
    fit reports r_squared 1.0."""
    xs, ys = list(xs), list(ys)
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx else 0.0
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    if ss_tot == 0:
        r2 = 1.0 if ss_res == 0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return slope, intercept, r2


# --- schema/frame generators ------------------------------------------------------

def fixed_width_schema(field_count: int) -> list[SensorDescriptor]:
    """n sensors alternating int/double; no strings, so every frame has
    one fixed wire width."""
    out = []
    for i in range(field_count):
        vtype = ValueType.INT if i % 2 == 0 else ValueType.DOUBLE
        out.append(SensorDescriptor(f"field_{i:02d}", vtype, 100))
    return out


def _make_frames(sensors, count: int, seed: int = 7) -> list[bytes]:
    import random

    from .wire import F64, FRAME_HEADER, I64

    rng = random.Random(seed)
    frames = []
    for seq in range(count):
        parts = [FRAME_HEADER.pack(seq, seq * 100)]
        for sensor in sensors:
            if sensor.value_type is ValueType.INT:
                parts.append(b"\x01" + I64.pack(rng.randrange(-(2**40), 2**40)))
            else:
                parts.append(b"\x01" + F64.pack(rng.uniform(-1000.0, 1000.0)))
        frames.append(b"".join(parts))
    return frames


def _doc_for(hub_id: str, sensors) -> bytes:
    return serialize_musdd(build_musdd(hub_id, None, sensors))


# --- scenarios ---------------------------------------------------------------------

def bench_decode(
    field_count: int = 8,
    record_count: int = 1_000_000,
    reps: int = 10,
    pool_size: int = 4096,
) -> BenchReport:
    """Per-record decode time under both strategies over identical frames.

    Frames are pre-generated once into a pool and cycled until
    record_count decodes have run, so both strategies chew through the
    exact same bytes.  Decoded output equality over the whole pool is
    verified before any timing.
    """
    report = BenchReport("decode")
    if record_count <= 0:
        return report
    sensors = fixed_width_schema(field_count)
    doc = build_musdd("bench_decode", None, sensors)
    pool = _make_frames(sensors, min(pool_size, record_count))

    plans = {s: compile_plan(doc, s) for s in (Strategy.SPSW, Strategy.DGCW)}
    spsw_out = [decode_record(plans[Strategy.SPSW], f) for f in pool]
    dgcw_out = [decode_record(plans[Strategy.DGCW], f) for f in pool]
    if spsw_out != dgcw_out:
        raise AssertionError("strategies decoded the same frames differently; not timing that")

    passes, remainder = divmod(record_count, len(pool))
    for strategy in (Strategy.SPSW, Strategy.DGCW):
        plan = plans[strategy]
        decode = decode_record
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(passes):
                for frame in pool:
                    decode(plan, frame)
            for frame in pool[:remainder]:
                decode(plan, frame)
            elapsed = time.perf_counter() - t0
            samples.append(elapsed / record_count * 1e9)
        report.add(f"{strategy.tag}_decode", "ns_per_record", field_count, samples)

        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        held = [decode_record(plan, f) for f in pool[:256]]
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        delta = sum(s.size_diff for s in after.compare_to(before, "filename"))
        del held
        report.add(f"{strategy.tag}_decode_memory", "bytes", field_count, [float(delta)])
        report.add(
            f"{strategy.tag}_plan_size", "bytes", field_count, [float(plan.plan_size_bytes)]
        )
    return report


def bench_config_time(
    field_counts=(1, 2, 4, 8, 16, 32, 64),
    strategy: Strategy = Strategy.DGCW,
    reps: int = 10,
) -> BenchReport:
    """End-to-end registration latency per schema width, cold and warm.

    Cold rows register a never-seen schema into a fresh store; warm rows
    re-register the same schema shape (different hub) against the now
    populated plan cache.  The middleware's own configuration_time_ms is
    the measurement.
    """
    report = BenchReport("config")
    cold = {n: [] for n in field_counts}
    warm = {n: [] for n in field_counts}
    for _ in range(reps):  # sizes interleave, so a slow spell hits every size
        for n in field_counts:
            sensors = fixed_width_schema(n)
            with tempfile.TemporaryDirectory(prefix="bench-config-") as store:
                core = MiddlewareCore(Path(store), strategy=strategy)
                try:
                    cold[n].append(_configuration_time_ms(core, "hub_cold", sensors))
                    warm[n].append(_configuration_time_ms(core, "hub_warm", sensors))
                finally:
                    core.shutdown()
    for n in field_counts:
        report.add(f"{strategy.tag}_cold_register", "ms", n, cold[n])
        report.add(f"{strategy.tag}_warm_register", "ms", n, warm[n])
    return report


def _configuration_time_ms(core: MiddlewareCore, hub_id: str, sensors) -> float:
    """Register the hub with the garbage collector off, as timeit does, and
    return the middleware's own configuration_time_ms."""
    raw = _doc_for(hub_id, sensors)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        core.handle_register(raw)
    finally:
        if gc_was_enabled:
            gc.enable()
    return core.get_session(hub_id).configuration_time_ms


def _store_plan_bytes(store: Path) -> int:
    plans = store / "plans"
    return sum(p.stat().st_size for p in plans.rglob("*") if p.is_file())


def bench_storage(schema_counts=tuple(range(1, 101)), reps: int = 1) -> BenchReport:
    """Plan-store footprint after N distinct schemas, per strategy."""
    report = BenchReport("storage")
    top = max(schema_counts, default=0)
    wanted = set(schema_counts)
    for strategy in (Strategy.SPSW, Strategy.DGCW):
        sizes = {}
        with tempfile.TemporaryDirectory(prefix="bench-storage-") as store:
            core = MiddlewareCore(
                Path(store), strategy=strategy, port_range=(20000, 20000 + top + 16)
            )
            try:
                for n in range(1, top + 1):
                    # distinct fingerprint per n: same width, unique field names
                    sensors = [
                        SensorDescriptor(f"s{n:03d}_{i:02d}", ValueType.DOUBLE, 100)
                        for i in range(8)
                    ]
                    core.handle_register(_doc_for(f"hub_{n:03d}", sensors))
                    if n in wanted:
                        sizes[n] = _store_plan_bytes(Path(store))
            finally:
                core.shutdown()
        for n in sorted(sizes):
            report.add(f"{strategy.tag}_store", "bytes", n, [float(sizes[n])] * reps)
        xs = sorted(sizes)
        if len(xs) >= 2:
            slope, intercept, r2 = linear_fit(xs, [sizes[n] for n in xs])
            report.add(f"{strategy.tag}_store_fit_r2", "r2", 0, [r2])
            report.add(f"{strategy.tag}_store_fit_slope", "bytes_per_schema", 0, [slope])
    return report


def _bundle_specs(count: int) -> list[SimSpec]:
    return [
        SimSpec(
            kind=SimKind.SINE,
            name=f"sensor_{i:03d}",
            value_type=ValueType.DOUBLE,
            period_ms=100,
            seed=i,
            mean=20.0,
            amplitude=5.0,
        )
        for i in range(count)
    ]


def bench_plugin_storage(plugin_counts=tuple(range(1, 16))) -> BenchReport:
    """Serialized plugin-bundle size vs plugin count, plus the
    library-vs-standalone packaging comparison."""
    report = BenchReport("plugin-storage")
    sizes = {}
    for n in plugin_counts:
        sizes[n] = len(serialize_plugin_bundle(_bundle_specs(n)))
        report.add("bundle_size", "bytes", n, [float(sizes[n])])
    xs = sorted(sizes)
    if len(xs) >= 2:
        slope, intercept, r2 = linear_fit(xs, [sizes[n] for n in xs])
        report.add("bundle_fit_r2", "r2", 0, [r2])
        report.add("bundle_fit_slope", "bytes_per_plugin", 0, [slope])
        report.add("bundle_fit_intercept", "bytes", 0, [intercept])
    specs = _bundle_specs(15)
    libraries = sum(
        len(serialize_plugin_bundle(specs[i : i + 5])) for i in range(0, 15, 5)
    )
    standalone = sum(len(serialize_plugin_bundle([s])) for s in specs)
    report.add("library_of_5_total", "bytes", 15, [float(libraries)])
    report.add("standalone_total", "bytes", 15, [float(standalone)])
    return report


def bench_energy(
    rates_hz=(1, 2, 5, 10, 20),
    policies=("none", "delta:0.5", "avg:10"),
    duration_s: int = 60,
    field_count: int = 8,
) -> BenchReport:
    """Bytes on the wire per minute for each (sampling rate, filter
    policy), holding the signal constant.  Bytes stand in for radio
    energy; only the stream itself is modeled, no network involved."""
    report = BenchReport("energy")
    sensors = fixed_width_schema(field_count)
    layout = [(s.name, s.value_type) for s in sensors]
    row = {
        s.name: (21 if s.value_type is ValueType.INT else 21.5) for s in sensors
    }
    for policy_text in policies:
        policy = FilterPolicy.parse(policy_text)
        for rate in rates_hz:
            ticks = rate * duration_s
            engine = FilterEngine(policy, layout)
            encoder = StreamEncoder(layout)
            total_bytes = 0
            records = 0
            for tick in range(ticks):
                out = engine.process(tick, row)
                if out is None:
                    continue
                frame = encoder.encode(records, tick * (1000 // rate), out)
                total_bytes += len(frame)
                records += 1
            report.add(f"bytes[{policy_text}]", "bytes_per_min", rate, [float(total_bytes)])
            report.add(f"records[{policy_text}]", "records_per_min", rate, [float(records)])
    return report


def bench_e2e(
    hub_count: int = 3,
    sensor_count: int = 8,
    rate_hz: int = 10,
    duration_s: int = 10,
    port_range=(7100, 7199),
) -> BenchReport:
    """Live run: N hubs stream sim-sensor data into one server over TCP;
    reports per-hub frames enqueued/sent/stored and the loss count, which
    a healthy run keeps at exactly zero."""
    from .errors import UnknownHub
    from .hub import SensorHub
    from .server import MiddlewareServer
    from .simsensors import make_sim_plugin

    report = BenchReport("e2e")
    period_ms = 1000 // rate_hz
    with tempfile.TemporaryDirectory(prefix="bench-e2e-") as store:
        server = MiddlewareServer(
            Path(store), strategy=Strategy.DGCW, control_port=0, port_range=port_range
        )
        server.start()
        hubs = []
        try:
            address = ("127.0.0.1", server.control_port)
            for h in range(hub_count):
                hub = SensorHub(f"bench_hub_{h}", address)
                for i in range(sensor_count):
                    hub.register_plugin(
                        make_sim_plugin(
                            SimSpec(
                                kind=SimKind.SINE,
                                name=f"sig_{i:02d}",
                                value_type=ValueType.DOUBLE,
                                period_ms=period_ms,
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

            def received_total() -> int:
                total = 0
                for h in hubs:
                    try:
                        total += server.core.get_session(h.hub_id).frames_received
                    except UnknownHub:
                        pass
                return total

            deadline = time.time() + 15
            while time.time() < deadline:
                if received_total() >= sum(h.frames_sent for h in hubs):
                    break
                time.sleep(0.1)
            loss_total = 0
            for i, hub in enumerate(hubs):
                try:
                    stored = server.core.get_session(hub.hub_id).records_decoded
                except UnknownHub:
                    stored = 0
                loss = hub.frames_enqueued - hub.queue_dropped - stored
                loss_total += loss
                report.add("frames_enqueued", "frames", i, [float(hub.frames_enqueued)])
                report.add("frames_sent", "frames", i, [float(hub.frames_sent)])
                report.add("frames_stored", "frames", i, [float(stored)])
                report.add("frames_lost", "frames", i, [float(loss)])
            report.add("total_loss", "frames", hub_count, [float(loss_total)])
        finally:
            for hub in hubs:
                try:
                    hub.stop()
                except Exception:
                    pass
            server.stop()
    return report
