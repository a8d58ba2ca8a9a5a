"""Fine-grained data redistribution (the ZMPI-ATASP analogue, [13,14]).

The operation sends **every particle to an individually computed target
process** using an all-to-all communication, optionally duplicating
particles (ghost particles are "created automatically during the particle
data redistribution step", Sect. II-C).  A user-defined *distribution
function* specifies the target process(es) for each local particle; the
generalized version used by the P2NFFT solver supports duplication by
returning multiple (element, target) pairs per particle.

Data plane: one flat exchange per call.  All ranks' ``(element, target)``
pairs are stably sorted by target in one pass, one gather per column fills
a single buffer in ``(dst, src, pair)`` order, and the run boundaries of
that order form the message table (``src``, ``dst``, row ``count``).  The
buffer and table travel as one :class:`~repro.simmpi.collectives.FlatSends`
through :func:`~repro.simmpi.collectives.alltoallv`; each rank's result is a
row slice of the received buffer — a view, read-only under the delivery
aliasing contract of ``docs/backends.md``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.particles import ColumnBlock, common_columns
from repro.simmpi.collectives import FlatSends, alltoallv, neighborhood_alltoallv
from repro.simmpi.machine import Machine

__all__ = ["fine_grained_redistribute", "DistResult"]

#: A distribution function returns either a plain per-element target-rank
#: array of shape ``(n,)`` (no duplication), or a pair
#: ``(element_indices, target_ranks)`` of equal-length arrays where repeated
#: element indices create duplicates (ghost particles).
DistResult = Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]
DistFn = Callable[[int, ColumnBlock], DistResult]


def _normalize(block: ColumnBlock, result: DistResult) -> Tuple[np.ndarray, np.ndarray]:
    """Canonicalize a distribution-function result to (elem_idx, targets)."""
    if isinstance(result, tuple):
        elem_idx, targets = result
        elem_idx = np.asarray(elem_idx, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if elem_idx.shape != targets.shape or elem_idx.ndim != 1:
            raise ValueError(
                f"duplicating distribution must return equal 1-D arrays, got "
                f"{elem_idx.shape} and {targets.shape}"
            )
        if elem_idx.size and (elem_idx.min() < 0 or elem_idx.max() >= block.n):
            raise ValueError("element indices out of range")
        return elem_idx, targets
    targets = np.asarray(result, dtype=np.int64)
    if targets.shape != (block.n,):
        raise ValueError(
            f"distribution function must return shape ({block.n},), got {targets.shape}"
        )
    return np.arange(block.n, dtype=np.int64), targets


def fine_grained_redistribute(
    machine: Machine,
    blocks: Sequence[ColumnBlock],
    dist_fn: DistFn,
    phase: Optional[str] = None,
    *,
    comm: str = "alltoall",
) -> List[ColumnBlock]:
    """Redistribute per-rank blocks according to a distribution function.

    Parameters
    ----------
    blocks:
        one :class:`ColumnBlock` per rank (identical column sets).
    dist_fn:
        called as ``dist_fn(rank, block)``; see :data:`DistResult`.  Targets
        must be valid ranks.  Returning ``(elem_idx, targets)`` with repeated
        ``elem_idx`` duplicates particles (ghosts); elements whose index
        never appears are dropped (ghost removal works the same way).
    comm:
        ``"alltoall"`` uses the general collective with a dense count
        exchange; ``"neighborhood"`` models pre-posted point-to-point
        communication with known peers (Sect. III-B) — the caller guarantees
        targets are bounded-distance neighbors.

    Returns
    -------
    One block per rank: the concatenation of received sub-blocks in source
    rank order (stable within each source, preserving the sender's element
    order — the ordering contract the resort indices rely on).
    """
    P = machine.nprocs
    if len(blocks) != P:
        raise ValueError(f"{len(blocks)} blocks for {P} ranks")
    if comm not in ("alltoall", "neighborhood"):
        raise ValueError(f"comm must be 'alltoall' or 'neighborhood', got {comm!r}")
    names = common_columns(blocks)
    sources = [b for b in blocks if b.n] or [blocks[0]]

    # per-rank (element, target) pairs in rank order, validated as they come
    # so a bad rank raises before anything is charged
    elems: List[np.ndarray] = []
    targets: List[np.ndarray] = []
    narrow = np.min_scalar_type(P - 1)  # narrowest unsigned rank dtype
    first_row = 0
    for rank, block in enumerate(blocks):
        elem_idx, tgt = _normalize(block, dist_fn(rank, block))
        if tgt.size and (tgt.min() < 0 or tgt.max() >= P):
            raise ValueError(f"rank {rank}: target ranks out of range")
        elems.append(elem_idx + first_row)
        targets.append(tgt.astype(narrow))
        first_row += block.n
    src = np.repeat(np.arange(P, dtype=narrow), [t.size for t in targets])
    dst = np.concatenate(targets)
    del targets
    # one stable sort of the source-major pairs by target: (dst, src, pair);
    # NumPy's stable sort is a radix sort for ranks that fit 16 bits.  Each
    # per-pair temporary is deleted once consumed: they bound peak memory
    order = np.argsort(dst, kind="stable")
    rows = np.concatenate(elems)[order]
    del elems
    dst = dst[order]
    src = src[order]
    del order

    # one gather per column into the receive-ordered buffer
    columns = tuple(
        np.concatenate([b[name] for b in sources]).take(rows, axis=0) for name in names
    )
    del rows

    # message table: one message per (dst, src) run of the sorted pairs
    run_start = np.concatenate(([dst.size > 0], (dst[1:] != dst[:-1]) | (src[1:] != src[:-1])))
    starts = np.flatnonzero(run_start)
    counts = np.diff(np.append(starts, dst.size))
    sends = FlatSends(columns, src[starts].astype(np.int64), dst[starts].astype(np.int64), counts)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=P)))).tolist()
    del src, dst, columns

    if comm == "alltoall":
        recv = alltoallv(machine, sends, phase)
    else:
        recv = neighborhood_alltoallv(machine, sends, phase)
    buffer = ColumnBlock()
    for name, column in zip(names, recv.columns):
        buffer[name] = column
    return [buffer.row_slice(bounds[r], bounds[r + 1]) for r in range(P)]
