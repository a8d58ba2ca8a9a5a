"""Host-time benchmark of the coupled simulation.

Drives the public API (:class:`repro.md.simulation.Simulation` on a
:class:`repro.simmpi.machine.Machine`) on one workload of
``workloads.json`` and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 hostbench/run.py --workload fmm-force-p64 --seed 1 --seconds 20 --trace 0

A run repeats *rounds* until ``--seconds`` have passed (at least
``MIN_ROUNDS``).  A round builds a fresh simulation from the generated
inputs and initializes it (one ``setup_s`` sample), then runs the
workload's ``steps_per_round`` steps (one ``step_s`` sample each).  Every
round starts from the same inputs, so every round must reach the same
modeled outputs; see ``check.py``.

``--trace 0`` reports the end-to-end metrics (medians over the run's
samples, tracing off, peak RSS of this process).  ``--trace 1`` alternates
untraced and traced rounds, then runs one audited round for the
``trace-accounting`` invariant, and reports per-layer metrics: for every
boundary in ``tracer.BOUNDARIES`` its calls, busy (inclusive) and self
seconds per step, the exact work counts, the trace's messages and bytes per
step per phase, setup self time per layer, the unattributed remainder and
the tracing overhead.  The raw spans are written once, at the end, to
``out/spans-<workload>-seed<seed>.json``.

``--record-reference`` runs one audited round per given seed and stores its
modeled outputs in ``reference/<workload>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "repro").is_dir():  # measure the checkout's code, never an installed copy
    sys.exit(f"no repro package under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np

import repro.solvers.fmm  # noqa: F401  (module import is not set-up work)
import repro.solvers.p2nfft  # noqa: F401
from repro.bench.harness import make_system
from repro.md.simulation import Simulation, SimulationConfig
from repro.simmpi.costmodel import JUQUEEN, JUROPA
from repro.simmpi.machine import Machine
from repro.verify.audit import enable_auditing
from repro.verify.invariants import InvariantChecker

import check
from tracer import BOUNDARIES, Tracer, span_times

WORKLOADS: Dict[str, dict] = json.loads((HERE / "workloads.json").read_text())["workloads"]
#: where a traced run writes its spans (ignored by git)
OUT = HERE / "out"
PROFILES = {"juropa": JUROPA, "juqueen": JUQUEEN}
DEFAULT_SEED = 1
MIN_ROUNDS = 3
#: trace phases whose messages and bytes are reported per step
TRACE_PHASES = ("sort", "halo", "resort", "resort_index", "restore")
LAYERS = tuple(dict.fromkeys(b.layer for b in BOUNDARIES))

clock = time.perf_counter


def build(workload: dict, system, seed: int) -> Simulation:
    """A fresh machine and simulation for ``workload`` (not initialized)."""
    nprocs = workload["nprocs"]
    extra = {}
    if workload["dynamics"] == "brownian":
        subdomain = float(system.box.min()) / round(nprocs ** (1.0 / 3.0))
        extra["brownian_step"] = workload["drift_subdomains"] * subdomain
    if workload["compute"] != "full":
        extra["solver_kwargs"] = {"compute": workload["compute"]}
    config = SimulationConfig(
        solver=workload["solver"],
        method=workload["method"],
        distribution=workload["distribution"],
        dynamics=workload["dynamics"],
        seed=seed,
        **extra,
    )
    machine = Machine(nprocs, profile=PROFILES[workload["profile"]])
    return Simulation(machine, system, config)


class Round:
    """One set-up plus ``steps_per_round`` steps, timed, then checked."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.step_s: List[float] = []
        self.attempted = 0
        self.problems: List[str] = []
        self.outputs: Optional[check.Outputs] = None
        #: per step: {phase: (messages, bytes)}
        self.phase_counts: List[Dict[str, tuple]] = []
        self.plan_lookups = 0
        self.plan_hits = 0


def run_round(workload: dict, system, seed: int, *,
              tracer: Optional[Tracer] = None, audit: bool = False,
              index: int = 0) -> Round:
    rnd = Round()
    steps = workload["steps_per_round"]
    gc.collect()
    if tracer is not None:
        tracer.begin(("setup", index))
        tracer.install()
    try:
        rnd.attempted += 1
        t0 = clock()
        sim = build(workload, system, seed)
        t1 = clock()
        if audit:
            enable_auditing(sim.machine)
        checker = InvariantChecker(sim)
        t2 = clock()
        sim.initialize()
        t3 = clock()
        rnd.setup_s = (t1 - t0) + (t3 - t2)
        rnd.problems += check.invariant_failures(checker, "initialize")
        stats0 = sim.fcs.plan_stats
        for k in range(steps):
            if tracer is not None:
                tracer.begin(("step", index, k))
            snap = sim.machine.trace.snapshot()
            rnd.attempted += 1
            a = clock()
            sim.step()
            b = clock()
            rnd.step_s.append(b - a)
            delta = sim.machine.trace.delta_since(snap)
            rnd.phase_counts.append(
                {p: (delta[p].messages, delta[p].bytes) for p in delta}
            )
            rnd.problems += check.invariant_failures(checker, f"step {k + 1}")
        stats1 = sim.fcs.plan_stats
        rnd.plan_lookups = (stats1.compiles + stats1.cache_hits) - (
            stats0.compiles + stats0.cache_hits)
        rnd.plan_hits = stats1.cache_hits - stats0.cache_hits
        rnd.outputs = check.modeled_outputs(sim, steps)
    except Exception as exc:  # an operation raised: the run fails, and says why
        traceback.print_exc()
        rnd.problems.append(f"round {index}: {type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.begin(None)
            tracer.uninstall()
    return rnd


def run_rounds(workload: dict, system, seed: int, seconds: float,
               tracer: Optional[Tracer]) -> List[Round]:
    """Rounds until ``seconds`` passed; with a tracer, every second round
    is traced."""
    rounds: List[Round] = []
    start = clock()
    min_rounds = MIN_ROUNDS if tracer is None else 2
    while len(rounds) < min_rounds or clock() - start < seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        rounds.append(run_round(workload, system, seed,
                                tracer=tracer if traced else None,
                                index=len(rounds)))
        if rounds[-1].problems:
            break
    return rounds


def check_outputs(rounds: List[Round], reference: Optional[check.Outputs]) -> List[str]:
    problems = [p for r in rounds for p in r.problems]
    if problems:
        return problems
    first = rounds[0].outputs
    for i, rnd in enumerate(rounds[1:], start=1):
        problems += check.compare(rnd.outputs, first, f"round {i} vs round 0")
    if reference is not None:
        problems += check.compare(first, reference, "reference")
    return problems


# -- metrics -------------------------------------------------------------------


def end_to_end(rounds: List[Round]) -> Dict[str, dict]:
    steps = [s for r in rounds for s in r.step_s]
    return {
        "step_s": {"value": statistics.median(steps), "unit": "s"},
        "setup_s": {"value": statistics.median(r.setup_s for r in rounds), "unit": "s"},
        "peak_rss_mib": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MiB",
        },
    }


def per_layer(tracer: Tracer, traced: List[Round], untraced: List[Round]) -> Dict[str, dict]:
    """Per-step layer metrics of the traced rounds."""
    nsteps = sum(len(r.step_s) for r in traced)
    nsetups = len(traced)
    times = span_times(tracer.spans)
    nb = len(BOUNDARIES)
    busy, self_s = [0.0] * nb, [0.0] * nb
    setup_self = dict.fromkeys(LAYERS, 0.0)
    top_step = top_setup = 0.0
    for (index, start, end, parent, run), (dur, own, nested) in zip(tracer.spans, times):
        if run[0] == "step":
            self_s[index] += own
            if not nested:
                busy[index] += dur
            if parent < 0:
                top_step += dur
        else:
            setup_self[BOUNDARIES[index].layer] += own
            if parent < 0:
                top_setup += dur

    def in_steps(run) -> bool:
        return run is not None and run[0] == "step"

    calls = tracer.total(tracer.calls, in_steps)
    counts = tracer.total(tracer.counts, in_steps)
    m: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = {"value": value, "unit": unit}

    for i, b in enumerate(BOUNDARIES):
        put(f"{b.key}.calls", calls[i] / nsteps, "count")
        if b.timed:
            put(f"{b.key}.busy_s", busy[i] / nsteps, "s")
            put(f"{b.key}.self_s", self_s[i] / nsteps, "s")
        if b.count_name:
            put(f"{b.key}.{b.count_name}", counts[i] / nsteps, "count")
    lookups = sum(r.plan_lookups for r in traced)
    hits = sum(r.plan_hits for r in traced)
    put("core.plan.lookups", lookups / nsteps, "count")
    put("core.plan.hit_rate", hits / lookups if lookups else 0.0, "ratio")
    for phase in TRACE_PHASES:
        counts = [c.get(phase, (0, 0)) for r in traced for c in r.phase_counts]
        put(f"trace.{phase}.messages", sum(c[0] for c in counts) / nsteps, "count")
        put(f"trace.{phase}.bytes", sum(c[1] for c in counts) / nsteps, "B")
    traced_steps = [s for r in traced for s in r.step_s]
    untraced_steps = [s for r in untraced for s in r.step_s]
    put("traced_step_s", statistics.median(traced_steps), "s")
    put("untraced_step_s", statistics.median(untraced_steps), "s")
    put("tracing_overhead_s",
        statistics.median(traced_steps) - statistics.median(untraced_steps), "s")
    put("unattributed_s", (sum(traced_steps) - top_step) / nsteps, "s")
    for layer in LAYERS:
        put(f"setup.{layer}.self_s", setup_self[layer] / nsetups, "s")
    put("setup.unattributed_s",
        (sum(r.setup_s for r in traced) - top_setup) / nsetups, "s")
    return m


def print_layer_table(metrics: Dict[str, dict]) -> None:
    """Human-readable per-step host time by boundary, largest self first."""
    rows = []
    for b in BOUNDARIES:
        if b.timed and metrics[f"{b.key}.calls"]["value"]:
            rows.append((metrics[f"{b.key}.self_s"]["value"],
                         metrics[f"{b.key}.busy_s"]["value"],
                         metrics[f"{b.key}.calls"]["value"], b.key))
    rows.append((metrics["unattributed_s"]["value"], float("nan"), float("nan"),
                 "(unattributed)"))
    print(f"{'self s/step':>12} {'busy s/step':>12} {'calls/step':>11}  boundary")
    for own, busy, calls, key in sorted(rows, reverse=True):
        print(f"{own:12.4f} {busy:12.4f} {calls:11.1f}  {key}")


def write_spans(tracer: Tracer, path: Path) -> None:
    """The raw spans as ``[boundary, start, end, parent, run id]`` rows."""
    names = [b.key for b in BOUNDARIES]
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(
        [[names[i], start, end, parent, list(run)]
         for i, start, end, parent, run in tracer.spans]))


def record_reference(name: str, seeds: List[int]) -> int:
    workload = WORKLOADS[name]
    outputs = {}
    for seed in seeds:
        rnd = run_round(workload, make_system(workload["n"], seed), seed, audit=True)
        if rnd.problems:
            print("\n".join(rnd.problems), file=sys.stderr)
            return 1
        outputs[seed] = rnd.outputs
        print(f"{name} seed {seed}: elapsed {rnd.outputs['elapsed']}", flush=True)
    check.save_reference(name, outputs)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", type=int, nargs="+", metavar="SEED",
                        help="store the modeled outputs of these seeds and exit")
    args = parser.parse_args(argv)
    if args.record_reference:
        return record_reference(args.workload, args.record_reference)

    workload = WORKLOADS[args.workload]
    system = make_system(workload["n"], args.seed)  # input generation: untimed
    tracer = Tracer() if args.trace else None
    rounds = run_rounds(workload, system, args.seed, args.seconds, tracer)
    checked = list(rounds)
    if tracer is not None and not rounds[-1].problems:
        # trace-accounting needs an auditor: one more round, not timed
        checked.append(run_round(workload, system, args.seed, audit=True,
                                 index=len(rounds)))
    reference = check.load_reference(args.workload, args.seed)
    problems = check_outputs(checked, reference)
    for line in problems:
        print(line, file=sys.stderr)

    metrics: Dict[str, dict] = {}
    if not problems and tracer is None:
        metrics = end_to_end(rounds)
    elif not problems:
        metrics = per_layer(tracer, rounds[1::2], rounds[0::2])
        print_layer_table(metrics)
        write_spans(tracer, OUT / f"spans-{args.workload}-seed{args.seed}.json")
    attempted = sum(r.attempted for r in checked)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "reference": reference is not None, "host_cpus": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "setup_samples": [r.setup_s for r in rounds],
        "step_samples": [s for r in rounds for s in r.step_s],
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
