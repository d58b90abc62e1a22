import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from brightlink import core as core_module
from brightlink.channel import _warp_operator
from brightlink.decoder import _rectify_weights


@pytest.fixture(autouse=True)
def fresh_operator_caches():
    """Start each test with no kept warp or weight image, so a test that
    counts builds or patches resampling_map does not depend on the tests
    that ran before it."""
    _warp_operator.cache_clear()
    _rectify_weights.cache_clear()


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread it started running and not a daemon: a
    generator that threads its work must join them once closed or exhausted."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate()
            if thread not in before and not thread.daemon]
    if left:
        pytest.fail(f"threads left running: {left}")


@pytest.fixture
def submissions(monkeypatch):
    """A list that gets one entry per task core.run_tasks hands its pool."""
    submitted = []

    class CountingExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(core_module, "ThreadPoolExecutor", CountingExecutor)
    return submitted


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log(request):
    """Collector for the per-criterion PASS/FAIL lines shown after the run."""
    config = request.config
    if not hasattr(config, "acceptance_lines"):
        config.acceptance_lines = []
    return config.acceptance_lines.append
