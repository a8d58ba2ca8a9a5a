"""Correctness of one benchmark round, checked outside the timed region.

After every operation (``initialize()`` and each ``step()``) the cheap
:class:`repro.verify.invariants.InvariantChecker` invariants run.  At the
end of a round the modeled outputs (state fingerprint digests, the modeled
clock as float hex, and the trace's total messages and bytes) must equal
those of the run's first round, and, for a seed with a committed
reference in ``reference/<workload>.json``, the reference.  A host-time
change that moves one modeled bit fails the check.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.verify.invariants import InvariantChecker, state_fingerprint

__all__ = ["INVARIANTS", "Outputs", "compare", "invariant_failures", "load_reference",
           "modeled_outputs", "save_reference"]

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: the cheap invariants that apply to every workload (``resort-permutation``
#: costs more than a step at P = 1024, and the fingerprint comparison covers
#: the layout); ``trace-accounting`` needs an auditor and is skipped by the
#: checker in rounds that run without one
INVARIANTS = (
    "particle-count",
    "charge-conservation",
    "identity-permutation",
    "local-shape-consistency",
    "results-finite",
    "trace-accounting",
)

Outputs = Dict[str, object]


def invariant_failures(checker: InvariantChecker, op: str) -> List[str]:
    return [
        f"{op}: invariant {r.name}: {r.detail}"
        for r in checker.run(INVARIANTS)
        if r.failed
    ]


def modeled_outputs(sim, steps: int) -> Outputs:
    trace = sim.machine.trace
    return {
        "steps": steps,
        "fingerprint": state_fingerprint(sim),
        "elapsed": sim.machine.elapsed().hex(),
        "messages": trace.total_messages(),
        "bytes": trace.total_bytes(),
    }


def compare(got: Outputs, want: Outputs, what: str) -> List[str]:
    """One line per modeled output that differs."""
    problems = []
    for key in ("steps", "elapsed", "messages", "bytes"):
        if got[key] != want[key]:
            problems.append(f"{what}: {key} {got[key]!r} != {want[key]!r}")
    for component, digest in want["fingerprint"].items():
        if got["fingerprint"].get(component) != digest:
            problems.append(f"{what}: state fingerprint component {component!r} differs")
    return problems


def _path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> Optional[Outputs]:
    path = _path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(seed))


def save_reference(workload: str, by_seed: Dict[int, Outputs]) -> None:
    path = _path(workload)
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update({str(seed): out for seed, out in by_seed.items()})
    REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
