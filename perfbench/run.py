"""Ingest and registration benchmark for hubstream.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program under test is
imported from ./src and served by a real MiddlewareServer in a child
process (perfbench/launch.py).  Workloads (see perfbench/design.json):

    ingest_fixed    one hub, 8 INT/DOUBLE fields, full rate, closed loop
    ingest_mixed    one hub, nulls and strings, resends, status reads beside
    register_churn  re-registration of a rotating set of hubs
    all             the three above, one after the other

Every run checks the server's outputs (record log replay, counters,
status answers, live session set) before it reports.  With --trace 0 it
prints the end-to-end metrics listed in BENCHMARK.json; with --trace 1 it
runs the workload twice, untraced and then with span shims installed in
the server, and prints the per-layer metrics and the tracing overhead.
The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("ingest_fixed", "ingest_mixed", "register_churn")


def _config() -> dict:
    if not (SRC / "hubstream" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no hubstream sources under {SRC}; run from a source checkout")
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _inputs(workload: str, seed: int, tracer=None):
    import gen
    import workloads

    rng = random.Random(f"{workload}:{seed}")
    if workload == "ingest_fixed":
        return gen.generate("hub_main", gen.fixed_specs(rng), "none", workloads.POOL_TICKS, tracer)
    if workload == "ingest_mixed":
        return gen.generate("hub_main", gen.mixed_specs(rng), "delta:0.5", workloads.POOL_TICKS,
                            tracer)
    return workloads.churn_input(rng.randrange(1 << 30), tracer)


def _run(workload: str, inp, ctx, seconds: float):
    import workloads
    from hubstream.server import STATUS_LATEST, STATUS_LIST, STATUS_WINDOW

    if workload == "ingest_fixed":
        return workloads.run_ingest(ctx, inp, seconds, [(STATUS_LIST, "")], dups=False)
    if workload == "ingest_mixed":
        queries = [(STATUS_LATEST, inp.hub_id), (STATUS_WINDOW, inp.hub_id)]
        return workloads.run_ingest(ctx, inp, seconds, queries, dups=True)
    return workloads.run_churn(ctx, inp, seconds)


def end_to_end(out) -> tuple[dict, list[str]]:
    """The metrics of an untraced run.  The latency figures are not steady
    enough on a shared machine to gate a change; they are printed here and
    reported with the per-layer metrics (see design.json)."""
    from harness import percentile, tail_quantile

    values = dict(out.values)
    notes = []
    for name, samples in (("status", out.status_s), ("register", out.register_s)):
        q = tail_quantile(out.tail_basis.get(name, len(samples)))
        values[f"{name}_p50_ms"] = percentile(samples, 0.5) * 1e3
        values[f"{name}_tail_ms"] = percentile(samples, q) * 1e3
        notes.append(f"{name}_tail_ms is p{q * 100:.2f} of {len(samples)} samples")
    values["setup_s"] = statistics.median(out.setup_s)
    if out.status_late_s:
        notes.append(f"status generator ran late by {percentile(out.status_late_s, 0.5) * 1e3:.3f} ms"
                     f" at p50, {max(out.status_late_s) * 1e3:.3f} ms at most")
    notes += out.notes
    notes.append(f"failed_frac {out.failed / max(out.attempted, 1):.6g}"
                 f" ({out.failed} of {out.attempted} operations)")
    return values, notes


def per_layer(server: dict, hub: dict, untraced_fps: float, traced_fps: float) -> dict:
    stats, nested, counters = server["stats"], server["nested"], server["counters"]
    for key, value in hub["stats"].items():
        stats.setdefault(key, value)
    counters = {**counters, **hub["counters"]}

    def count(name):
        return stats[name]["count"] if name in stats else 0

    def total(name):
        return stats[name]["total_ns"] if name in stats else 0

    def mean(name, unit_ns):
        return total(name) / count(name) / unit_ns if count(name) else 0.0

    def self_mean(name, unit_ns):
        return stats[name]["self_ns"] / count(name) / unit_ns if count(name) else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    us, ms = 1e3, 1e6
    ingest = stats.get("server.ingest_frame")
    return {
        "wire.read_frame_us": mean("wire.read_frame", us),
        "wire.recv_exact_per_frame": share(nested.get("wire.recv_exact in wire.read_frame", [0])[0],
                                           count("wire.read_frame")),
        "server.record_log_append_us": mean("server.record_log_append", us),
        "server.ingest_frame_us": mean("server.ingest_frame", us),
        "server.ingest_frame_self_us": self_mean("server.ingest_frame", us),
        "server.ingest_busy_frac": share(total("server.ingest_frame"),
                                         ingest["last_ns"] - ingest["first_ns"] if ingest else 0),
        "wrapper.decode_record_us": mean("wrapper.decode_record", us),
        "wrapper.decode_share_of_ingest": share(total("wrapper.decode_record"),
                                                total("server.ingest_frame")),
        "wrapper.on_stream_element_self_us": self_mean("wrapper.on_stream_element", us),
        "wrapper.dup_decoded_frac": share(counters.get("wrapper.dup_dropped", 0),
                                          count("wrapper.decode_record")),
        "server.status_query_us": mean("server.status_query", us),
        "vsd.eval_window_query_us": mean("vsd.eval_window_query", us),
        "server.handle_register_ms": mean("server.handle_register", ms),
        "server.handle_register_self_ms": self_mean("server.handle_register", ms),
        "server.teardown_hook_ms": mean("server.teardown_hook", ms),
        "server.teardown_share_of_register": share(
            nested.get("server.teardown_hook in server.handle_register", [0, 0])[1],
            total("server.handle_register")),
        "sdd.parse_musdd_ms": mean("sdd.parse_musdd", ms),
        "sdd.fingerprint_us": mean("sdd.fingerprint", us),
        "wrapper.compile_plan_ms": mean("wrapper.compile_plan", ms),
        "wrapper.plan_hit_frac": share(counters.get("wrapper.plan_hit", 0),
                                       count("wrapper.lookup_or_add")),
        "wrapper.instantiate_ms": mean("wrapper.instantiate", ms),
        "vsd.generate_vsd_ms": mean("vsd.generate_vsd", ms),
        "simsensors.sample_us": mean("simsensors.sample", us),
        "hub.filter_process_us": mean("hub.filter_process", us),
        "hub.encode_us": mean("hub.encode", us),
        "hub.frames_suppressed_frac": share(counters.get("hub.suppressed", 0),
                                            count("hub.filter_process")),
        "trace.ingest_fps": traced_fps,
        "trace.untraced_ingest_fps": untraced_fps,
        "trace.overhead_frac": 1.0 - share(traced_fps, untraced_fps),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run one workload; returns the result object."""
    import harness
    import spans
    import workloads

    calib = harness.calibration_ms()
    if not trace:
        out = _run(workload, _inputs(workload, seed), workloads.Context(SRC, work / "run"), seconds)
        metrics, notes = end_to_end(out)
        notes.insert(0, f"calibration loop {calib:.3f} ms (no hubstream code)")
    else:
        hub_tracer = spans.Tracer()
        with spans.hub_shims(hub_tracer):
            inp = _inputs(workload, seed, hub_tracer)
        plain = _run(workload, inp, workloads.Context(SRC, work / "plain"), seconds / 2)
        traced_ctx = workloads.Context(SRC, work / "traced", trace=True, setup_launches=1)
        out = _run(workload, inp, traced_ctx, seconds / 2)
        out.ops(plain.attempted, plain.failed, "untraced pass operations")
        out.failures += plain.failures
        server_trace = json.loads(traced_ctx.last_trace.read_text())
        bad = spans.nesting_violations(server_trace["spans"])
        out.check("child spans lie within their parents", not bad, "; ".join(bad[:3]))
        metrics = per_layer(server_trace, hub_tracer.snapshot(),
                            plain.values.get("ingest_fps", 0.0), out.values.get("ingest_fps", 0.0))
        plain_values, _ = end_to_end(plain)
        for name in ("status_p50_ms", "status_tail_ms", "register_p50_ms", "register_tail_ms"):
            metrics[name] = plain_values[name]
        metrics["calib.loop_ms"] = calib
        notes = []
    return {"outcome": out, "metrics": metrics, "notes": notes}


def report(workload: str, result: dict, declared: list[dict]) -> dict:
    out, metrics = result["outcome"], result["metrics"]
    correct = not out.failures and out.failed == 0
    shown = {}
    print(f"== {workload}")
    for spec in declared:
        value = metrics.get(spec["name"])
        if value is None:
            correct = False
            out.failures.append(f"metric {spec['name']} was not measured")
            continue
        shown[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:36s} {value:14.6g} {spec['unit']}")
    for name in sorted(set(metrics) - set(shown)):
        print(f"  # {name} {metrics[name]:.6g}")
    for note in result["notes"]:
        print(f"  # {note}")
    for failure in out.failures:
        print(f"  FAILED {failure}")
    return {"correct": correct, "attempted": out.attempted, "failed": out.failed,
            "metrics": shown}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    config = _config()
    sys.path.insert(0, str(SRC))
    import harness

    harness.pin(harness.CLIENT_CPU)
    declared = config["per_layer"] if args.trace else config["end_to_end"]
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            work_dir = work / name
            work_dir.mkdir(parents=True)
            try:
                result = run_one(name, args.seed, args.seconds, bool(args.trace), work_dir)
            except Exception as exc:  # report a crashed run as failed, after cleanup
                import traceback

                import workloads

                traceback.print_exc()
                out = workloads.Outcome()
                out.ops(1, 1, f"runs ({type(exc).__name__}: {exc})")
                result = {"outcome": out, "metrics": {}, "notes": []}
            results.append(report(name, result, declared))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}/{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
