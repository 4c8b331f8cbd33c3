"""Span shims that time hubstream's layers from outside the package.

A Tracer wraps a callable so each call records a span: name, start, end
and the id of the enclosing span on the same thread.  Nothing inside
``hubstream`` changes; the shims replace names where their callers look
them up (``hubstream.server.parse_musdd``, ``hubstream.wire.read_frame``,
methods on the public classes), so patching works for code already
imported.

Every span updates per-thread aggregates (count, total time, self time =
duration minus the time covered by its child spans) on the spot, so a
traced run of millions of frames keeps constant memory.  The most recent
spans are also kept whole, with their parent ids, in a bounded ring that
is written out at exit for inspection and for the nesting self-check.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import deque
from contextlib import contextmanager
from time import perf_counter_ns

RING_LEN = 50_000


class _ThreadState:
    __slots__ = ("stack", "stats", "nested", "counters")

    def __init__(self):
        self.stack: list[list] = []  # [span id, ns covered by children, name]
        self.stats: dict[str, list[int]] = {}  # name -> [count, total, self, first, last]
        self.nested: dict[str, list[int]] = {}  # "child in parent" -> [count, total]
        self.counters: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self.ring: deque = deque(maxlen=RING_LEN)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._states.append(state)
        return state

    def count(self, name: str, n: int = 1) -> None:
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + n

    def wrap(self, name: str, fn, on_result=None):
        """Return fn wrapped in a span named `name`.  on_result(tracer,
        result) runs after a successful call, to count outcomes."""
        ids = self._ids
        ring = self.ring
        state_of = self._state

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            state = state_of()
            stack = state.stack
            span_id = next(ids)
            parent = stack[-1][0] if stack else 0
            entry = [span_id, 0, name]
            stack.append(entry)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                    key = f"{name} in {stack[-1][2]}"
                    pair = state.nested.get(key)
                    if pair is None:
                        state.nested[key] = [1, duration]
                    else:
                        pair[0] += 1
                        pair[1] += duration
                agg = state.stats.get(name)
                if agg is None:
                    state.stats[name] = [1, duration, duration - entry[1], start, end]
                else:
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - entry[1]
                    agg[4] = end
                ring.append((span_id, parent, name, start, end))
            if on_result is not None:
                on_result(self, result)
            return result

        return shim

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr (a module global or a class method) by its
        traced shim."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_result))

    def snapshot(self) -> dict:
        """Aggregates merged over threads, plus the span ring."""
        stats: dict[str, dict] = {}
        nested: dict[str, list[int]] = {}
        counters: dict[str, int] = {}
        for state in list(self._states):
            for name, (n, total, self_ns, first, last) in list(state.stats.items()):
                cur = stats.get(name)
                if cur is None:
                    stats[name] = {"count": n, "total_ns": total, "self_ns": self_ns,
                                   "first_ns": first, "last_ns": last}
                else:
                    cur["count"] += n
                    cur["total_ns"] += total
                    cur["self_ns"] += self_ns
                    cur["first_ns"] = min(cur["first_ns"], first)
                    cur["last_ns"] = max(cur["last_ns"], last)
            for key, (n, total) in list(state.nested.items()):
                cur = nested.setdefault(key, [0, 0])
                cur[0] += n
                cur[1] += total
            for name, n in list(state.counters.items()):
                counters[name] = counters.get(name, 0) + n
        return {"stats": stats, "nested": nested, "counters": counters,
                "spans": list(self.ring)}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)


def _count_if_none(counter: str):
    def hook(tracer: Tracer, result) -> None:
        if result is None:
            tracer.count(counter)
    return hook


def _count_plan_hit(tracer: Tracer, result) -> None:
    if result[1]:
        tracer.count("wrapper.plan_hit")


def install_server_shims(tracer: Tracer) -> None:
    """Wrap the server-side layers: wire, wrapper, server, sdd, vsd."""
    from hubstream import server, vsd, wire, wrapper

    tracer.patch(wire, "read_frame", "wire.read_frame")
    tracer.patch(wire, "recv_exact", "wire.recv_exact")
    tracer.patch(server, "parse_musdd", "sdd.parse_musdd")
    tracer.patch(server, "fingerprint", "sdd.fingerprint")
    tracer.patch(server, "compile_plan", "wrapper.compile_plan")
    tracer.patch(server, "instantiate", "wrapper.instantiate")
    tracer.patch(server, "eval_window_query", "vsd.eval_window_query")
    tracer.patch(wrapper, "decode_record", "wrapper.decode_record")
    tracer.patch(wrapper.WrapperInstance, "on_stream_element", "wrapper.on_stream_element",
                 _count_if_none("wrapper.dup_dropped"))
    tracer.patch(wrapper.PlanRepository, "lookup_or_add", "wrapper.lookup_or_add",
                 _count_plan_hit)
    tracer.patch(vsd.VsdCatalog, "generate_vsd", "vsd.generate_vsd")
    tracer.patch(server.RecordLog, "append", "server.record_log_append")
    tracer.patch(server.MiddlewareCore, "ingest_frame", "server.ingest_frame")
    tracer.patch(server.MiddlewareCore, "status_query", "server.status_query")
    tracer.patch(server.MiddlewareCore, "handle_register", "server.handle_register")


def install_teardown_shim(tracer: Tracer, core) -> None:
    """The teardown hook is an attribute of each core, set by the server."""
    core.on_teardown = tracer.wrap("server.teardown_hook", core.on_teardown)


@contextmanager
def hub_shims(tracer: Tracer):
    """Wrap the hub-side layers for the duration of the block and put the
    originals back after it, so each traced workload goes through exactly
    one shim; plugin sample() is wrapped per instance by the generator
    that owns the plugins."""
    from hubstream import hub

    saved = [(hub.FilterEngine, "process", hub.FilterEngine.process),
             (hub.StreamEncoder, "encode", hub.StreamEncoder.encode)]
    tracer.patch(hub.FilterEngine, "process", "hub.filter_process",
                 _count_if_none("hub.suppressed"))
    tracer.patch(hub.StreamEncoder, "encode", "hub.encode")
    try:
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def nesting_violations(spans) -> list[str]:
    """Spans whose children are not contained in them, or whose children's
    durations add up to more than their own.  Spans are (id, parent, name,
    start_ns, end_ns)."""
    by_id = {s[0]: s for s in spans}
    child_total: dict[int, int] = {}
    bad = []
    for span_id, parent, name, start, end in spans:
        if end < start:
            bad.append(f"{name}#{span_id} ends before it starts")
        p = by_id.get(parent)
        if p is None:
            continue
        if start < p[3] or end > p[4]:
            bad.append(f"{name}#{span_id} escapes parent {p[2]}#{p[0]}")
        child_total[parent] = child_total.get(parent, 0) + (end - start)
    for parent, total in child_total.items():
        p = by_id[parent]
        if total > p[4] - p[3]:
            bad.append(f"children of {p[2]}#{p[0]} exceed it")
    return bad
