import sys
import threading

import pytest


def _service_threads():
    return {
        t for t in threading.enumerate() if t.name == "server-loop" or t.name.startswith("hub-")
    }


@pytest.fixture(autouse=True)
def no_service_thread_left():
    """Fail a test that leaves a MiddlewareServer's loop thread or a
    SensorHub's thread running."""
    before = _service_threads()
    yield
    left = _service_threads() - before
    if left:
        names = ", ".join(sorted(t.name for t in left))
        pytest.fail(f"thread(s) still running after the test: {names}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance PASS/FAIL lines after the run, uncaptured."""
    lines = getattr(
        sys.modules.get("test_acceptance"), "REPORTED_LINES", None
    )
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.line(line)
