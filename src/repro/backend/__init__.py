"""repro.backend — pluggable execution engines for the virtual machine.

The simulated machine of :mod:`repro.simmpi` is the physics oracle: modeled
clocks, LogGP charges and traces never depend on the engine.  Payloads are
always delivered in the calling process; this package only decides where
independent host work runs:

* ``"inprocess"`` (default): every task runs in the calling process.
* ``"process"`` / ``"process:N"``: a pool of spawned ``multiprocessing``
  workers runs the two fan-outs that pay for themselves — the P2NFFT
  per-rank near field (:meth:`~ExecutionBackend.rank_map`) and the fig7
  benchmark cells (:meth:`~ExecutionBackend.map_tasks`).  Tasks are pure,
  so fingerprints stay bitwise-identical.

Select an engine with ``SimulationConfig(backend="process")``,
``machine.attach_backend(resolve_backend("process:4"))``, or the
``--backend`` flag of ``repro.perf`` / ``repro.verify``.  See
``docs/backends.md``.
"""

from repro.backend.base import (
    BACKEND_NAMES,
    BackendError,
    BackendWorkerError,
    ExecutionBackend,
    backend_spec,
    resolve_backend,
)
from repro.backend.inprocess import InProcessBackend

__all__ = [
    "BACKEND_NAMES",
    "BackendError",
    "BackendWorkerError",
    "ExecutionBackend",
    "InProcessBackend",
    "backend_spec",
    "resolve_backend",
    "export_metrics",
]


def export_metrics(backend, registry) -> None:
    """Publish a backend's counters as ``backend.*`` gauges on an
    observability registry (:class:`repro.obs.MetricsRegistry`).

    Schema (all monotonic over the backend's lifetime):

    ==========================  =====================================================
    metric                      meaning
    ==========================  =====================================================
    ``backend.tasks``           per-rank / fan-out task invocations
    ``backend.spawn_ns``        host ns spent spawning worker processes
    ``backend.wait_ns``         host ns the coordinator spent awaiting workers
    ``backend.workers``         configured worker count (0 = in-process)
    ==========================  =====================================================
    """
    for key, value in backend.counters.items():
        registry.gauge(key).set(float(value))
    registry.gauge("backend.workers").set(float(backend.workers))
