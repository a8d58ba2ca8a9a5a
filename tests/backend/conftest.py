"""Fixtures for the cross-backend differential suite.

Process-backend tests must never hang: they carry ``pytest.mark.timeout``
markers (honored when pytest-timeout is installed) *and* the hang-prone
ones run under :func:`run_with_watchdog`, which fails the test from a
watchdog thread even without the plugin.
"""

from __future__ import annotations

import threading

import pytest

from repro.backend.process import ProcessBackend


@pytest.fixture(scope="session")
def process_backend():
    """One shared 2-worker process engine for the whole session (spawning
    workers is the expensive part; the engine is stateless between calls)."""
    backend = ProcessBackend(workers=2, timeout=120.0)
    yield backend
    backend.close()


@pytest.fixture
def watchdog():
    """Hang-proofing helper: run a callable on a daemon thread and fail the
    test if it doesn't finish (a stuck fan-out must become a test failure,
    never a stuck pytest).  Returns the callable's value, re-raises its
    exception.
    """

    def run_with_watchdog(fn, timeout=90.0):
        result: dict = {}

        def target():
            try:
                result["value"] = fn()
            except BaseException as exc:  # surfaces in the calling thread
                result["error"] = exc

        t = threading.Thread(target=target, daemon=True)
        t.start()
        t.join(timeout)
        if t.is_alive():
            pytest.fail(f"operation did not finish within {timeout}s (hang)")
        if "error" in result:
            raise result["error"]
        return result.get("value")

    return run_with_watchdog
