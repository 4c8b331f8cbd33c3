"""Self-checks for the benchmark harness.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  Checks that verification
catches a truncated record log and a missing frame, that traced child
spans never exceed their parent, that a run (good or failed) leaves no
server process or bound data port behind, and that run.py refuses to run
without the program's sources.
"""

from __future__ import annotations

import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hubstream.server import STATUS_LIST, RecordLog  # noqa: E402


WORK = ROOT / ".perfbench_work"


def _work() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selfcheck-", dir=WORK))


def tearDownModule():
    try:
        WORK.rmdir()
    except OSError:  # absent, or another run is using it
        pass


class VerificationCatchesDefects(unittest.TestCase):
    def setUp(self):
        self.work = _work()
        self.addCleanup(shutil.rmtree, self.work, True)
        self.bodies = [bytes([i]) * (20 + i) for i in range(10)]
        self.path = self.work / "hub.log"
        log = RecordLog(self.path)
        for body in self.bodies:
            log.append(1, body)
        log.close()

    def _failures(self, expected) -> int:
        out = workloads.Outcome()
        workloads._check_log(out, self.path, expected, "hub")
        return out.failed

    def test_intact_log_passes(self):
        self.assertEqual(self._failures(self.bodies), 0)

    def test_truncated_log_fails(self):
        data = self.path.read_bytes()
        self.path.write_bytes(data[:-3])
        self.assertEqual(self._failures(self.bodies), 1)

    def test_missing_frame_fails(self):
        self.assertEqual(self._failures(self.bodies + [b"\x00" * 20]), 1)
        self.assertEqual(self._failures(self.bodies[:4] + self.bodies[5:]), 1)

    def test_changed_frame_fails(self):
        self.assertEqual(self._failures(self.bodies[:9] + [b"\x01" * 29]), 1)


class SpansNest(unittest.TestCase):
    def test_children_stay_within_parents(self):
        tracer = spans.Tracer()

        def leaf(n):
            if n % 7 == 0:
                raise ValueError(n)
            return n

        traced_leaf = tracer.wrap("leaf", leaf)

        def parent(n):
            total = 0
            for k in range(n):
                try:
                    total += traced_leaf(k)
                except ValueError:
                    pass
            return total

        traced_parent = tracer.wrap("parent", parent)
        threads = [threading.Thread(target=lambda: [traced_parent(20) for _ in range(50)])
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            self.assertFalse(t.is_alive())
        snap = tracer.snapshot()
        self.assertEqual(spans.nesting_violations(snap["spans"]), [])
        stats = snap["stats"]
        self.assertEqual(stats["parent"]["count"], 100)
        self.assertEqual(stats["leaf"]["count"], 2000)
        self.assertEqual(snap["nested"]["leaf in parent"][0], 2000)
        self.assertLessEqual(stats["parent"]["self_ns"], stats["parent"]["total_ns"])
        self.assertEqual(stats["parent"]["total_ns"] - stats["parent"]["self_ns"],
                         snap["nested"]["leaf in parent"][1])

    def test_checker_flags_escaping_children(self):
        bad = [(1, 0, "parent", 100, 200), (2, 1, "child", 150, 250)]
        self.assertTrue(spans.nesting_violations(bad))
        overfull = [(1, 0, "parent", 100, 200), (2, 1, "a", 100, 180), (3, 1, "b", 120, 200)]
        self.assertTrue(spans.nesting_violations(overfull))


def _held_ports() -> list[int]:
    """Data ports from the benchmark's range that something still holds."""
    held = []
    for port in range(harness.DATA_PORTS[0], harness.DATA_PORTS[1] + 1):
        with socket.socket() as s:
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                s.bind(("127.0.0.1", port))
            except OSError:
                held.append(port)
    return held


class NothingLeftBehind(unittest.TestCase):
    def setUp(self):
        self.work = _work()
        self.addCleanup(shutil.rmtree, self.work, True)
        self.procs = []
        original = harness.ServerProcess.__init__

        def tracked(server, *args, **kwargs):
            original(server, *args, **kwargs)
            self.procs.append(server.proc)

        workloads.ServerProcess.__init__ = tracked
        self.addCleanup(setattr, workloads.ServerProcess, "__init__", original)
        import random

        self.inp = gen.generate("hub_main", gen.fixed_specs(random.Random(5)), "none", 2000)

    def _run(self):
        ctx = workloads.Context(ROOT / "src", self.work, setup_launches=2)
        return workloads.run_ingest(ctx, self.inp, 1.0, [(STATUS_LIST, "")], dups=False)

    def assertClean(self):
        self.assertTrue(self.procs)
        for proc in self.procs:
            self.assertIsNotNone(proc.poll(), "server process still running")
        self.assertEqual(_held_ports(), [])

    def test_good_run(self):
        out = self._run()
        self.assertEqual(out.failures, [])
        self.assertClean()

    def test_load_generator_crash(self):
        calls = []
        original = gen.Stream.chunk

        def failing(stream, first, n):
            calls.append(first)
            if len(calls) > 3:
                raise RuntimeError("injected")
            return original(stream, first, n)

        gen.Stream.chunk = failing
        self.addCleanup(setattr, gen.Stream, "chunk", original)
        with self.assertRaises(RuntimeError):
            self._run()
        self.assertClean()

    def test_server_killed_mid_run(self):
        original = harness.ServerProcess.mark

        def kill_then_ask(server):
            server.proc.kill()
            server.proc.wait()
            return original(server)

        harness.ServerProcess.mark = kill_then_ask
        self.addCleanup(setattr, harness.ServerProcess, "mark", original)
        with self.assertRaises(Exception):
            self._run()
        self.assertClean()


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_directory(self):
        work = _work()
        self.addCleanup(shutil.rmtree, work, True)
        shutil.copy(ROOT / "BENCHMARK.json", work)
        shutil.copytree(HERE, work / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "ingest_fixed", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=work, capture_output=True, text=True, timeout=180,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")
        self.assertLess(time.monotonic() - t0, 180)


if __name__ == "__main__":
    unittest.main()
