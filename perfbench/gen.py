"""Benchmark inputs, made from the seed through the hub's own code path.

Samples come from simsensors plugins, pass the hub's FilterEngine and are
encoded by its StreamEncoder, one tick (BASE_MS of hub time) at a time,
exactly as SensorHub does when it streams.  That generation is timed
(hub_frame_us, at the reference speed of harness.PROBE_REF_NS).  The
server later receives only these bytes: frame i of
a stream is pool entry i mod len(pool), stamped with sequence i and the
timestamp of its tick, so a pool of a few thousand encoded field regions
feeds a run of any length without repeating a sequence number.
"""

from __future__ import annotations

import random
import statistics
import struct
import time
from dataclasses import dataclass

from hubstream.hub import FilterEngine, FilterPolicy, StreamEncoder
from hubstream.sdd import SensorDescriptor, ValueType, build_musdd, serialize_musdd
from hubstream.simsensors import SimKind, SimSpec, make_sim_plugin

from harness import PROBE_REF_NS, probe_ns

BASE_MS = 100
T0_MS = 1_700_000_000_000
BLOCK_TICKS = 1000
_PREFIX = struct.Struct(">IQQ")  # frame length, sequence, timestamp_ms
HEADER_LEN = 20  # length prefix plus sequence and timestamp


@dataclass
class HubInput:
    """One hub's schema and its encoded sample stream."""

    hub_id: str
    sensors: tuple[SensorDescriptor, ...]
    doc: bytes
    fields: list[bytes]  # field region of each produced frame
    ticks: list[int]  # sample tick of each produced frame
    pool_ticks: int  # ticks the pool spans
    hub_frame_us: float  # hub time per produced frame at the reference speed

    @property
    def layout(self) -> tuple:
        return tuple((s.name, s.value_type) for s in self.sensors)

    def doc_for(self, hub_id: str) -> bytes:
        return serialize_musdd(build_musdd(hub_id, None, self.sensors))


def generate(hub_id: str, specs: list[SimSpec], policy: str, ticks: int, tracer=None) -> HubInput:
    """Run the hub's sample -> filter -> encode path for `ticks` ticks."""
    plugins = [make_sim_plugin(spec) for spec in specs]
    if tracer is not None:
        for plugin in plugins:
            plugin.sample = tracer.wrap("simsensors.sample", plugin.sample)
    sensors = tuple(p.describe().sensor for p in plugins)
    layout = tuple((s.name, s.value_type) for s in sensors)
    engine = FilterEngine(FilterPolicy.parse(policy), layout)
    encoder = StreamEncoder(layout)
    slots = [(p.sample, s.name, s.sample_period_ms) for p, s in zip(plugins, sensors)]
    fields: list[bytes] = []
    frame_ticks: list[int] = []
    per_frame_us = []
    for block_start in range(0, ticks, BLOCK_TICKS):
        produced = len(fields)
        probe = probe_ns()
        t0 = time.perf_counter_ns()
        for tick in range(block_start, min(ticks, block_start + BLOCK_TICKS)):
            now = tick * BASE_MS
            row = {name: (sample() if now % period == 0 else None) for sample, name, period in slots}
            out = engine.process(tick, row)
            if out is not None:
                frame = encoder.encode(len(fields), T0_MS + now, out)
                fields.append(frame[HEADER_LEN:])
                frame_ticks.append(tick)
        elapsed = time.perf_counter_ns() - t0
        if len(fields) > produced:
            scale = 2 * PROBE_REF_NS / (probe + probe_ns())
            per_frame_us.append(elapsed * scale / (len(fields) - produced) / 1000.0)
    return HubInput(
        hub_id=hub_id,
        sensors=sensors,
        doc=serialize_musdd(build_musdd(hub_id, None, sensors)),
        fields=fields,
        ticks=frame_ticks,
        pool_ticks=ticks,
        hub_frame_us=statistics.median(per_frame_us),
    )


def _walk(rng: random.Random, name: str, vtype: ValueType, period: int, step: float) -> SimSpec:
    return SimSpec(kind=SimKind.RANDOM_WALK, name=name, value_type=vtype, period_ms=period,
                   seed=rng.randrange(1 << 30), mean=rng.uniform(-50, 50), step=step)


def _sine(rng: random.Random, name: str, vtype: ValueType, period: int, amplitude: float,
          step: float) -> SimSpec:
    return SimSpec(kind=SimKind.SINE, name=name, value_type=vtype, period_ms=period,
                   mean=rng.uniform(-50, 50), amplitude=amplitude, step=step)


def _ticker(rng: random.Random, name: str, period: int) -> SimSpec:
    return SimSpec(kind=SimKind.STRING_TICKER, name=name, value_type=ValueType.STRING,
                   period_ms=period, prefix=f"s{rng.randrange(10, 100)}")


# The seed picks values and field order only; the kinds, periods and step
# sizes below are fixed, so every seed costs the same to ingest and
# suppresses about the same share of samples.

def fixed_specs(rng: random.Random) -> list[SimSpec]:
    """Four INT and four DOUBLE fields, all sampled every tick: every
    frame is complete and fixed-width."""
    specs = []
    for i in range(4):
        specs.append(_walk(rng, f"n{i}", ValueType.INT, BASE_MS, 2.0))
        specs.append(_sine(rng, f"d{i}", ValueType.DOUBLE, BASE_MS, 10.0, 0.1))
    rng.shuffle(specs)
    return specs


def mixed_specs(rng: random.Random) -> list[SimSpec]:
    """Five doubles, three ints and two strings at mixed periods; with
    delta:0.5 most frames carry nulls."""
    specs = [
        _walk(rng, "d0", ValueType.DOUBLE, 100, 1.0),
        _walk(rng, "d1", ValueType.DOUBLE, 100, 0.4),
        _sine(rng, "d2", ValueType.DOUBLE, 200, 5.0, 0.2),
        _sine(rng, "d3", ValueType.DOUBLE, 100, 2.0, 0.1),
        _walk(rng, "d4", ValueType.DOUBLE, 300, 2.0),
        _walk(rng, "n0", ValueType.INT, 100, 1.5),
        _sine(rng, "n1", ValueType.INT, 200, 3.0, 0.1),
        _walk(rng, "n2", ValueType.INT, 100, 0.6),
        _ticker(rng, "s0", 500),
        _ticker(rng, "s1", 1000),
    ]
    rng.shuffle(specs)
    return specs


def churn_schemas(rng: random.Random, count: int) -> list[list[SimSpec]]:
    """`count` schemas with distinct fingerprints.  Schema i has 6 + i % 5
    fields, 1 + i % 2 of them strings and half the rest ints; names are
    fixed, so the plan store's size does not depend on the seed.  The seed
    picks which field gets which type."""
    seen = set()
    schemas = []
    while len(schemas) < count:
        i = len(schemas)
        width = 6 + i % 5
        strings = 1 + i % 2
        ints = (width - strings) // 2
        types = [ValueType.STRING] * strings + [ValueType.INT] * ints
        types += [ValueType.DOUBLE] * (width - len(types))
        rng.shuffle(types)
        if (width, tuple(types)) in seen:
            continue
        seen.add((width, tuple(types)))
        specs = []
        for k, vt in enumerate(types):
            if vt is ValueType.STRING:
                specs.append(_ticker(rng, f"c{k}", BASE_MS))
            else:
                specs.append(_walk(rng, f"c{k}", vt, BASE_MS, 1.0))
        schemas.append(specs)
    return schemas


class Stream:
    """The wire frames of one hub's stream, stamped from its pool.

    With dup_every > 0, each dup_every-th frame is followed by a resend of
    the frame dup_back positions earlier, inside the server's dedup
    window."""

    def __init__(self, inp: HubInput, dup_every: int = 0, dup_back: int = 0):
        self.inp = inp
        self.dup_every = dup_every
        self.dup_back = dup_back
        self._lens = [16 + len(f) for f in inp.fields]

    def frame(self, seq: int) -> bytes:
        """Unique frame `seq`, length prefix included."""
        inp = self.inp
        cycle, i = divmod(seq, len(inp.fields))
        tick = cycle * inp.pool_ticks + inp.ticks[i]
        return _PREFIX.pack(self._lens[i], seq, T0_MS + tick * BASE_MS) + inp.fields[i]

    def chunk(self, first: int, n: int) -> tuple[bytes, int]:
        """Frames first..first+n-1 with the injected resends; returns the
        bytes and the number of resends."""
        frame = self.frame
        parts = [frame(seq) for seq in range(first, first + n)]
        if not self.dup_every:
            return b"".join(parts), 0
        out = []
        dups = 0
        for k, part in enumerate(parts):
            out.append(part)
            seq = first + k
            if (seq + 1) % self.dup_every == 0 and seq >= self.dup_back:
                back = k - self.dup_back
                out.append(parts[back] if back >= 0 else frame(seq - self.dup_back))
                dups += 1
        return b"".join(out), dups

    def ticks_through(self, frames: int) -> int:
        """Sample ticks covered by unique frames 0..frames-1."""
        inp = self.inp
        cycle, i = divmod(frames - 1, len(inp.fields))
        return cycle * inp.pool_ticks + inp.ticks[i] + 1
