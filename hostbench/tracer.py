"""Host-time tracing of the repo's layers, from outside the program.

A :class:`Tracer` wraps the public functions listed in :data:`BOUNDARIES`
on every module binding that refers to them (a ``from``-import creates a
second binding, e.g. ``repro.solvers.fmm.solver.merge_exchange_sort``),
records one span per call and restores every original object on
:meth:`Tracer.uninstall`.  Spans are kept in memory as
``(boundary, start, end, parent, run)`` tuples; :func:`span_times` turns
them into inclusive (``busy``) and exclusive (``self``) seconds.

Nothing here imports :mod:`repro` at module import time, so the span
arithmetic can be tested on its own.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Boundary",
    "BOUNDARIES",
    "Span",
    "Tracer",
    "merged_length",
    "span_times",
]


@dataclasses.dataclass(frozen=True)
class Boundary:
    """One public function of one layer.

    ``target`` is ``"function"`` or ``"Class.method"`` inside ``module``.
    ``count``, when given, maps ``(args, result)`` of a call to an exact
    work count accumulated under ``count_name``.  ``timed=False`` boundaries
    only count calls (no span), for functions called too often to time.
    """

    layer: str
    name: str
    module: str
    target: str
    count_name: Optional[str] = None
    count: Optional[Callable[[tuple, Any], int]] = None
    timed: bool = True

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.name}"


def _pair_count(args: tuple, result: Any) -> int:
    return int(result[2])


def _ghost_copies(args: tuple, result: Any) -> int:
    # ghost_distribution(grid, pos, rc) -> (elements, targets): one owner
    # entry per particle, every further entry is a ghost copy
    return int(result[0].shape[0]) - int(args[1].shape[0])


def _rows_delivered(args: tuple, result: Any) -> int:
    return sum(block.n for block in result)


#: the layer boundaries, in the order the per-layer metrics are printed
BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("solvers.fmm", "near_field_morton", "repro.solvers.fmm.tree",
             "FMMTree.near_field_morton", "near_pairs", _pair_count),
    Boundary("solvers.fmm", "far_field", "repro.solvers.fmm.tree",
             "FMMTree.far_field"),
    Boundary("solvers.p2nfft", "near_field", "repro.solvers.p2nfft.linked_cell",
             "LinkedCellNearField.compute", "near_pairs", _pair_count),
    Boundary("solvers.p2nfft", "kspace", "repro.solvers.p2nfft.mesh",
             "MeshSolver.kspace"),
    Boundary("solvers.p2nfft.decomp", "ghost_distribution",
             "repro.solvers.p2nfft.solver", "ghost_distribution",
             "ghost_copies", _ghost_copies),
    Boundary("solvers.p2nfft.decomp", "rank_of_positions", "repro.simmpi.cart",
             "CartGrid.rank_of_positions"),
    Boundary("sorting", "partition_sort", "repro.sorting.partition_sort",
             "partition_sort"),
    Boundary("sorting", "merge_exchange_sort", "repro.sorting.merge_sort",
             "merge_exchange_sort"),
    Boundary("core", "fine_grained_redistribute", "repro.core.fine_grained",
             "fine_grained_redistribute", "rows", _rows_delivered),
    Boundary("core", "restore_results", "repro.core.restore", "restore_results"),
    Boundary("core", "invert_indices", "repro.core.resort", "invert_indices"),
    Boundary("core", "plan_compile", "repro.core.plan", "ResortPlan.__init__"),
    Boundary("core", "plan_execute", "repro.core.plan", "ResortPlan.execute"),
    Boundary("zorder", "morton_encode3", "repro.zorder.morton", "morton_encode3"),
    Boundary("simmpi", "alltoallv", "repro.simmpi.collectives", "alltoallv"),
    Boundary("simmpi", "neighborhood_alltoallv", "repro.simmpi.collectives",
             "neighborhood_alltoallv"),
    Boundary("simmpi", "allreduce", "repro.simmpi.collectives", "allreduce"),
    Boundary("simmpi", "allgatherv", "repro.simmpi.collectives", "allgatherv"),
    Boundary("simmpi", "exchange_pairs", "repro.simmpi.p2p", "exchange_pairs"),
    Boundary("simmpi", "send_round", "repro.simmpi.p2p", "send_round"),
    Boundary("simmpi", "sendrecv", "repro.simmpi.p2p", "sendrecv"),
    Boundary("simmpi", "advance", "repro.simmpi.machine", "Machine.advance"),
    Boundary("simmpi", "compute", "repro.simmpi.machine", "Machine.compute"),
    Boundary("simmpi", "hops", "repro.simmpi.topology", "Topology.hops",
             timed=False),
    Boundary("core.handle", "tune", "repro.core.handle", "FCS.tune"),
    Boundary("core.handle", "run", "repro.core.handle", "FCS.run"),
    Boundary("core.handle", "resort", "repro.core.handle", "FCS.resort"),
    Boundary("md", "position_update", "repro.md.integrator", "position_update"),
    Boundary("md", "velocity_update", "repro.md.integrator", "velocity_update"),
    Boundary("md", "accelerations", "repro.md.integrator", "accelerations"),
)

#: one recorded call: (boundary index, start, end, parent span index or -1,
#: run id)
Span = Tuple[int, float, float, int, Any]


class Tracer:
    """Installs span-recording wrappers on every binding of the boundaries.

    Use as::

        tracer = Tracer()
        tracer.install()
        try:
            tracer.begin(("step", 0))
            sim.step()
        finally:
            tracer.uninstall()

    :meth:`begin` sets the run id that tags the spans, calls and counts
    recorded from then on; ``spans``, ``calls`` and ``counts`` (the last
    two per run id, one entry per boundary) accumulate across installs.
    """

    def __init__(self, boundaries: Sequence[Boundary] = BOUNDARIES) -> None:
        self.boundaries = tuple(boundaries)
        self.spans: List[Optional[Span]] = []
        self.calls: Dict[Any, List[int]] = {}
        self.counts: Dict[Any, List[int]] = {}
        self._current = -1
        self.begin(None)
        #: (module or class, attribute, original) for every patched binding
        self._patched: List[Tuple[Any, str, Any]] = []
        #: id(original) -> (original, wrapper), reused across installs
        self._wrappers: Dict[int, Tuple[Any, Any]] = {}

    def begin(self, run: Any) -> None:
        """Tag everything recorded from now on with ``run``."""
        self.run = run
        n = len(self.boundaries)
        self._calls = self.calls.setdefault(run, [0] * n)
        self._counts = self.counts.setdefault(run, [0] * n)

    def total(self, table: Dict[Any, List[int]], keep: Callable[[Any], bool]) -> List[int]:
        """Per-boundary sum of ``calls`` or ``counts`` over the run ids
        ``keep`` accepts."""
        out = [0] * len(self.boundaries)
        for run, values in table.items():
            if keep(run):
                out = [a + b for a, b in zip(out, values)]
        return out

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for index, owner, key, original in bindings(self.boundaries):
            if id(original) not in self._wrappers:
                self._wrappers[id(original)] = (original, self._wrap(index, original))
            setattr(owner, key, self._wrappers[id(original)][1])
            self._patched.append((owner, key, original))

    def uninstall(self) -> None:
        """Restore every patched binding, plus any binding a module
        imported while the wrappers were installed picked up."""
        originals = {id(w): o for o, w in self._wrappers.values()}
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                original = originals.get(id(value))
                if original is not None:
                    setattr(module, key, original)

    # -- recording -----------------------------------------------------------

    def _wrap(self, index: int, original: Callable) -> Callable:
        boundary = self.boundaries[index]
        count = boundary.count
        spans = self.spans
        clock = time.perf_counter

        if not boundary.timed:
            def counted(*args, **kwargs):
                self._calls[index] += 1
                return original(*args, **kwargs)

            return functools.wraps(original)(counted)

        def traced(*args, **kwargs):
            parent = self._current
            me = len(spans)
            spans.append(None)
            self._current = me
            self._calls[index] += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                self._current = parent
                spans[me] = (index, start, end, parent, self.run)
            if count is not None:
                self._counts[index] += count(args, result)
            return result

        return functools.wraps(original)(traced)


def _repro_modules() -> List[Any]:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def bindings(boundaries: Sequence[Boundary]) -> List[Tuple[int, Any, str, Any]]:
    """Every ``(boundary index, module or class, attribute, original)`` to
    patch.

    All boundary modules are imported first, so that a module imported by
    a later boundary cannot add an unpatched binding of an earlier one.
    """
    for boundary in boundaries:
        importlib.import_module(boundary.module)
    return [
        (index, *binding)
        for index, boundary in enumerate(boundaries)
        for binding in _bindings(boundary)
    ]


def _bindings(boundary: Boundary) -> List[Tuple[Any, str, Any]]:
    """Every ``(module or class, attribute, original)`` that refers to the
    boundary.

    A method is patched on its class and on every subclass that overrides
    it (``Topology.hops`` has one implementation per topology).  A module
    function is patched on every loaded ``repro`` module that binds it.
    """
    module = sys.modules[boundary.module]
    if "." in boundary.target:
        cls_name, meth = boundary.target.split(".")
        root = getattr(module, cls_name)
        out = []
        for cls in [root, *_all_subclasses(root)]:
            if meth in vars(cls):
                out.append((cls, meth, vars(cls)[meth]))
        return out
    original = getattr(module, boundary.target)
    out = []
    for mod in _repro_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                out.append((mod, key, original))
    return out


def _all_subclasses(cls: type) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_all_subclasses(sub))
    return out


# -- span arithmetic -----------------------------------------------------------


def merged_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_times(spans: Sequence[Span]) -> List[Tuple[float, float, bool]]:
    """Per span: ``(duration, self time, nested)``.

    Self time is the duration minus the part of it that the span's direct
    children cover.  ``nested`` is true when an ancestor belongs to the
    same boundary, so inclusive totals can skip recursive re-entry instead
    of counting the same interval twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for index, start, end, parent, _run in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: List[Tuple[float, float, bool]] = []
    for me, (index, start, end, parent, _run) in enumerate(spans):
        covered = merged_length(children.get(me, ()))
        nested = False
        up = parent
        while up >= 0:
            if spans[up][0] == index:
                nested = True
                break
            up = spans[up][3]
        out.append((end - start, end - start - covered, nested))
    return out
