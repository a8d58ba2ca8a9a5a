"""Self-tests of the benchmark's tracing.

    python3 -m pytest hostbench
"""

import sys
import types
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import BOUNDARIES, Tracer, bindings, merged_length, span_times  # noqa: E402


def _self_times(spans):
    return [own for _dur, own, _nested in span_times(spans)]


def test_nested_spans_subtract_only_direct_children():
    spans = [
        (0, 0.0, 10.0, -1, "r"),
        (1, 2.0, 6.0, 0, "r"),
        (2, 3.0, 4.0, 1, "r"),
    ]
    assert _self_times(spans) == [6.0, 3.0, 1.0]


def test_back_to_back_children_are_both_subtracted():
    spans = [
        (0, 0.0, 10.0, -1, "r"),
        (1, 1.0, 3.0, 0, "r"),
        (1, 3.0, 6.0, 0, "r"),
        (2, 6.0, 6.5, -1, "r"),
    ]
    assert _self_times(spans) == [5.0, 2.0, 3.0, 0.5]


def test_union_of_overlapping_intervals_counts_once():
    assert merged_length([(2.0, 5.0), (1.0, 3.0), (7.0, 8.0)]) == 5.0
    assert merged_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0
    assert merged_length([]) == 0.0


def test_recursive_reentry_is_flagged_nested():
    spans = [
        (0, 0.0, 4.0, -1, "r"),
        (1, 1.0, 3.0, 0, "r"),
        (0, 1.5, 2.5, 1, "r"),
    ]
    assert [nested for *_x, nested in span_times(spans)] == [False, False, True]


def _all_bindings():
    return [binding[1:] for binding in bindings(BOUNDARIES)]


def _identities(found):
    return [(id(owner), key, id(original)) for owner, key, original in found]


def test_uninstall_restores_every_binding():
    before = _all_bindings()
    # a from-import binding exists, and is found
    assert any(key == "merge_exchange_sort" and owner is sys.modules["repro.solvers.fmm.solver"]
               for owner, key, _o in before)
    tracer = Tracer()
    tracer.install()
    try:
        for owner, key, original in before:
            assert vars(owner)[key] is not original, key
        # a module imported while the wrappers are installed binds a wrapper
        probe = types.ModuleType("repro._hostbench_probe")
        import repro.zorder.morton as morton
        probe.morton_encode3 = morton.morton_encode3
        sys.modules[probe.__name__] = probe
    finally:
        tracer.uninstall()
    try:
        for owner, key, original in before:
            assert vars(owner)[key] is original, key
        assert probe.morton_encode3 is morton.morton_encode3
    finally:
        del sys.modules[probe.__name__]
    assert _identities(_all_bindings()) == _identities(before)


def test_spans_record_parents_calls_and_counts():
    from repro.simmpi.machine import Machine
    import repro.zorder.morton as morton

    machine = Machine(4)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin("run-1")
        machine.compute(np.full(4, 1e-3), phase="near")
        morton.morton_encode3(np.arange(3), np.arange(3), np.arange(3))
    finally:
        tracer.uninstall()
    keys = [BOUNDARIES[s[0]].key for s in tracer.spans]
    assert keys == ["simmpi.compute", "simmpi.advance", "zorder.morton_encode3"]
    assert [s[3] for s in tracer.spans] == [-1, 0, -1]
    assert {s[4] for s in tracer.spans} == {"run-1"}
    calls = dict(zip((b.key for b in BOUNDARIES), tracer.calls["run-1"]))
    assert calls["simmpi.compute"] == calls["simmpi.advance"] == 1


def test_traced_simulation_reaches_the_untraced_state():
    from repro.md.simulation import Simulation, SimulationConfig
    from repro.md.systems import silica_melt_system
    from repro.simmpi.machine import Machine
    from repro.verify.invariants import state_fingerprint

    system = silica_melt_system(512, seed=3)

    def fingerprint(tracer):
        sim = Simulation(Machine(8), system, SimulationConfig(solver="fmm", method="B", seed=3))
        if tracer is not None:
            tracer.install()
        try:
            sim.run(2)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return state_fingerprint(sim), sim.machine.elapsed()

    tracer = Tracer()
    assert fingerprint(tracer) == fingerprint(None)
    assert tracer.spans and all(s is not None for s in tracer.spans)
