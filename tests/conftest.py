import sys
import threading

import pytest


def _server_loops():
    return {t for t in threading.enumerate() if t.name == "server-loop"}


@pytest.fixture(autouse=True)
def no_server_loop_left():
    """Fail a test that leaves a MiddlewareServer's loop thread running."""
    before = _server_loops()
    yield
    left = _server_loops() - before
    if left:
        pytest.fail(f"{len(left)} server-loop thread(s) still running after the test")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance PASS/FAIL lines after the run, uncaptured."""
    lines = getattr(
        sys.modules.get("test_acceptance"), "REPORTED_LINES", None
    )
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.line(line)
