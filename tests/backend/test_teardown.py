"""Timeout/teardown hardening: a dead worker is a diagnostic, not a hang.

Crash tests use their own throwaway :class:`ProcessBackend` instances (a
crash poisons the pool by design — the dead worker's tasks are lost) and
run under the conftest watchdog so a regression fails fast.
"""

from __future__ import annotations

import pytest

from repro.backend import BackendError, BackendWorkerError
from repro.backend.process import ProcessBackend


def _rank_map(backend, nprocs=4):
    """A per-rank fan-out over ``nprocs`` ranks, so every worker participates."""
    return backend.rank_map("operator.add", [(r,) for r in range(nprocs)], shared=10)


@pytest.mark.timeout(120)
def test_worker_crash_surfaces_named_diagnostic(watchdog):
    backend = ProcessBackend(workers=2, timeout=60.0)
    try:
        backend.kill_worker(1, exitcode=3)
        with pytest.raises(BackendWorkerError) as exc:
            watchdog(lambda: _rank_map(backend), timeout=90.0)
        message = str(exc.value)
        # the diagnostic must name the dead worker, the virtual ranks it
        # owned, how it died, and that the exchange is unrecoverable
        assert "worker 1" in message
        assert "virtual ranks 1, 3" in message
        assert "exitcode=3" in message
        assert "the exchange cannot complete" in message
    finally:
        backend.close()


@pytest.mark.timeout(120)
def test_pool_is_poisoned_after_crash(watchdog):
    """After a worker death the backend refuses further work outright."""
    backend = ProcessBackend(workers=2, timeout=60.0)
    try:
        backend.kill_worker(0)
        with pytest.raises(BackendWorkerError):
            watchdog(lambda: _rank_map(backend), timeout=90.0)
        assert backend.closed
        with pytest.raises(BackendError):
            _rank_map(backend)
    finally:
        backend.close()


@pytest.mark.timeout(120)
def test_task_exception_names_worker_and_op(watchdog):
    """A task raising inside a worker is an error report, not a crash: the
    pool stays usable and the traceback crosses the pipe."""
    backend = ProcessBackend(workers=2, timeout=60.0)
    try:
        with pytest.raises(BackendWorkerError) as exc:
            watchdog(
                lambda: backend.map_tasks("math.sqrt", [(-1.0,)]), timeout=90.0
            )
        assert "failed during" in str(exc.value)
        assert "math domain error" in str(exc.value)
        assert not backend.closed
        # still alive and correct after the failed call
        assert backend.map_tasks("math.hypot", [(3.0, 4.0)]) == [5.0]
    finally:
        backend.close()


@pytest.mark.timeout(120)
def test_close_is_idempotent_and_final():
    backend = ProcessBackend(workers=2, timeout=60.0)
    assert backend.ping() == backend.ping()  # workers answer consistently
    backend.close()
    backend.close()  # idempotent
    assert backend.closed
    with pytest.raises(BackendError):
        backend.ping()


@pytest.mark.timeout(120)
def test_closed_backend_cannot_attach(process_backend):
    """machine.attach_backend refuses a dead engine up front."""
    from repro.simmpi.machine import Machine

    backend = ProcessBackend(workers=1, timeout=60.0)
    backend.close()
    with pytest.raises(RuntimeError):
        Machine(4).attach_backend(backend)
    # a live engine attaches fine (sanity check on the positive path)
    Machine(4).attach_backend(process_backend)
