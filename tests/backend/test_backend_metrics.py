"""Backend observability: the ``backend.*`` gauge schema, and what uses the pool.

Every engine keeps host-side counters (tasks, spawn/wait nanoseconds) that
:func:`repro.backend.export_metrics` publishes into a
:class:`~repro.obs.metrics.MetricsRegistry` as ``backend.*`` gauges.
These are *host* observability — none of them feed modeled time — so the
contract is schema stability and that they count exactly the fan-outs.
Payloads never travel through an engine; the only simulation code that
contacts the worker pool is the P2NFFT near field, one task per rank per
force evaluation.
"""

from __future__ import annotations

import pytest

from repro.backend import export_metrics, resolve_backend
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.obs.metrics import MetricsRegistry
from repro.simmpi import Machine

EXPECTED_GAUGES = {
    "backend.tasks",
    "backend.spawn_ns",
    "backend.wait_ns",
    "backend.workers",
}


def _exported(backend):
    registry = MetricsRegistry()
    export_metrics(backend, registry)
    return {s["name"]: s["value"] for s in registry.samples()}


def test_inprocess_schema_is_complete_and_zero_cost():
    backend = resolve_backend("inprocess")
    table = _exported(backend)
    assert set(table) == EXPECTED_GAUGES
    # the in-process engine never spawns or waits for anything
    assert table["backend.spawn_ns"] == 0.0
    assert table["backend.wait_ns"] == 0.0
    assert table["backend.workers"] == 0.0


def _tasks_for_run(engine, solver, steps, nprocs=4):
    """Run ``solver`` under ``engine``; returns the engine's
    ``backend.tasks`` delta and the number of force evaluations."""
    before = _exported(engine)["backend.tasks"]
    config = SimulationConfig(solver=solver, method="B", seed=0, backend=engine)
    sim = Simulation(Machine(nprocs), silica_melt_system(48, seed=0), config)
    try:
        sim.initialize()
        for _ in range(steps):
            sim.step()
    finally:
        sim.fcs.destroy()
    return _exported(engine)["backend.tasks"] - before, 1 + steps


@pytest.mark.timeout(240)
def test_process_counters_track_real_traffic(process_backend):
    """Only the P2NFFT near field contacts the pool: FMM and direct runs
    add no task, a full-compute P2NFFT run one per rank per evaluation."""
    assert process_backend.workers == 2
    for solver in ("fmm", "direct"):
        tasks, _evals = _tasks_for_run(process_backend, solver, steps=2)
        assert tasks == 0.0, f"{solver} contacted the worker pool"
    tasks, evals = _tasks_for_run(process_backend, "p2nfft", steps=2, nprocs=4)
    assert tasks == 4 * evals  # one near-field task per rank per evaluation
    table = _exported(process_backend)
    assert set(table) == EXPECTED_GAUGES
    assert table["backend.workers"] == 2.0
    assert table["backend.spawn_ns"] > 0.0  # workers were actually spawned
    assert table["backend.wait_ns"] > 0.0  # and actually awaited
