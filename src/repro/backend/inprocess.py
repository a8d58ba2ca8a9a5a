"""The in-process execution engine (default).

Every task runs in the calling process, in order — what the solvers do
without any backend attached.
"""

from __future__ import annotations

import importlib
from typing import Callable, List, Sequence

from repro.backend.base import ExecutionBackend

__all__ = ["InProcessBackend", "import_task"]


def import_task(fn_path: str) -> Callable:
    """Resolve a dotted ``module.attr`` path to a callable (the spawn-safe
    cross-process way to name code; the in-process engine uses the same
    resolution so both engines reject unimportable tasks identically)."""
    module_name, _, attr = fn_path.rpartition(".")
    if not module_name:
        raise ValueError(f"task path {fn_path!r} must be 'module.callable'")
    fn = getattr(importlib.import_module(module_name), attr)
    if not callable(fn):
        raise TypeError(f"task path {fn_path!r} does not name a callable")
    return fn


class InProcessBackend(ExecutionBackend):
    """Every task in the calling process."""

    name = "inprocess"
    workers = 0

    def rank_map(self, fn_path: str, per_rank_args: Sequence[tuple], shared=None) -> List[object]:
        fn = import_task(fn_path)
        self.counters["backend.tasks"] += len(per_rank_args)
        return [fn(shared, *args) for args in per_rank_args]

    def map_tasks(self, fn_path: str, items: Sequence[tuple]) -> List[object]:
        fn = import_task(fn_path)
        self.counters["backend.tasks"] += len(items)
        return [fn(*item) for item in items]
