"""Smoke test of the benchmark: short runs of perfbench/run.py from the
repository root must finish cleanly and print a complete, correct result
as their last line."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def reject_constant(name):
    """Strict JSON: a result line holding NaN or Infinity is not a result."""
    raise ValueError(f"{name} in the result line")


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=reject_constant)
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    return result["metrics"]


def assert_complete(metrics, names):
    assert sorted(metrics) == sorted(names)
    for name, metric in metrics.items():
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize(
    "args, section, workloads",
    [
        (["--workload", "all", "--seconds", "1", "--trace", "0"], "end_to_end",
         [w["name"] for w in CONFIG["workloads"]]),
        (["--workload", "ingest_fixed", "--seconds", "2", "--trace", "1"], "per_layer", None),
    ],
    ids=["all-untraced", "ingest_fixed-traced"],
)
def test_run_prints_a_complete_result(args, section, workloads):
    metrics = run_bench(*args)
    declared = [m["name"] for m in CONFIG[section]]
    if workloads is None:
        assert_complete(metrics, declared)
    else:
        assert_complete(metrics, [f"{w}/{name}" for w in workloads for name in declared])


SHIMS = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
from hubstream.server import MiddlewareCore
tracer = spans.Tracer()
spans.install_server_shims(tracer)
spans.install_teardown_shim(tracer, MiddlewareCore(sys.argv[3]))
with spans.hub_shims(tracer):
    pass
"""


def test_every_traced_name_still_exists(tmp_path):
    """The benchmark's span shims patch hubstream names by getattr: each
    one must still be there, or a traced run dies at launch."""
    proc = subprocess.run(
        [sys.executable, "-c", SHIMS, str(ROOT / "src"), str(ROOT / "perfbench"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
