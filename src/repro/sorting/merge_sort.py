"""Merge-based parallel sorting [15] on Batcher's merge-exchange network.

Each rank holds one locally sorted run; the network's comparator rounds are
executed as pairwise point-to-point merge steps (``MPI_Sendrecv``-style
exchanges, no collectives).  A comparator ``(a, b)`` establishes the
invariant "every key on rank *a* <= every key on rank *b*" while keeping the
per-rank element counts unchanged.

The crucial property for the paper's method B: before data moves, the pair
exchanges a constant-size control message (count, min key, max key).  If the
runs are already ordered — the common case when particles moved only
slightly since the previous time step — *no particle data is exchanged at
all*.  Otherwise only the overlap window ``[b.min, a.max]`` travels, which
for almost-sorted data is a small fraction of the particles.  This is why
"sorting the particles in this case causes that a majority of the particles
stays on its current process" translates into tiny redistribution times
(Fig. 7/8).

Data plane: one flat buffer per column.  A comparator splits the merged
pair back at the original counts, so every rank keeps its row count and
its row offset in the buffer for the whole network.  Each round is then a
permutation inside the window regions only (a's suffix, b's prefix): one
stable sort of all overlapping pairs' windows by ``(pair, key)`` scatters
the merged rows back in place.  Control and window payloads are views of
the table and the buffer, and the result is one row slice per rank — a
view, read-only under the delivery aliasing contract of
``docs/backends.md``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.core.particles import ColumnBlock, common_columns, row_ranges
from repro.simmpi.machine import Machine
from repro.simmpi.p2p import exchange_pairs
from repro.sorting.batcher import merge_exchange_rounds

__all__ = ["merge_exchange_sort", "local_sort"]


def local_sort(
    machine: Machine,
    blocks: Sequence[ColumnBlock],
    key: str,
    phase: Optional[str] = None,
) -> List[ColumnBlock]:
    """Stable per-rank sort of every block by its ``key`` column."""
    out: List[ColumnBlock] = []
    cost = np.zeros(machine.nprocs, dtype=np.float64)
    for r, block in enumerate(blocks):
        keys = block[key]
        order = np.argsort(keys, kind="stable")
        out.append(block.take(order))
        n = keys.shape[0]
        if n > 1:
            # adaptive (timsort-like) cost: nearly sorted runs cost a single
            # pass, disordered data the full n log n — this is what makes
            # method B's steady-state local sorts cheap
            disorder = float(np.count_nonzero(keys[1:] < keys[:-1])) / (n - 1)
            cost[r] = kernels.SORT_STEP * n * (1.0 + disorder * np.log2(n))
    machine.compute(cost, phase)
    return out


def merge_exchange_sort(
    machine: Machine,
    blocks: Sequence[ColumnBlock],
    key: str,
    phase: Optional[str] = None,
    *,
    presorted: bool = False,
    verify: bool = True,
) -> Tuple[List[ColumnBlock], bool]:
    """Sort distributed blocks globally by ``key`` with merge-exchange.

    Parameters
    ----------
    blocks:
        one block per rank (identical column sets); per-rank counts are
        preserved (a comparator splits the merged pair back at the
        original counts).
    presorted:
        skip the initial local sorts when each rank's block is already
        locally sorted (the method-B steady state: the previous step's
        output order plus slight position drift re-keyed and locally
        re-sorted by the caller).
    verify:
        exchange boundary keys after the network and reduce a global
        sortedness flag (one cheap extra round).  The comparator network is
        only *guaranteed* to sort equal-size blocks [16]; with the nearly
        equal counts of the method-B steady state failures are rare but
        possible, and callers fall back to the partition-based sort on the
        (now almost sorted) data when the flag is False.

    Returns ``(blocks, sorted_ok)``; blocks satisfy "each block locally
    sorted, counts unchanged", and additionally ``max(key on rank i) <=
    min(key on rank j)`` for all ``i < j`` whenever ``sorted_ok``.
    """
    P = machine.nprocs
    if len(blocks) != P:
        raise ValueError(f"{len(blocks)} blocks for {P} ranks")
    names = common_columns(blocks)
    current = list(blocks) if presorted else local_sort(machine, blocks, key, phase)
    if P == 1:
        return current, True

    # one buffer per column; rank r owns rows [starts[r], ends[r]) throughout
    counts = np.asarray([b.n for b in current], dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    nonempty = np.flatnonzero(counts)
    sources = [current[r] for r in nonempty] or [current[0]]
    buffer = ColumnBlock()
    for name in names:
        buffer[name] = np.concatenate([b[name] for b in sources])
    del current, sources
    columns = [buffer[name] for name in names]
    keys = buffer[key]

    for round_pairs in merge_exchange_rounds(P):
        pairs = np.asarray(round_pairs, dtype=np.int64)
        # 1. control exchange: (count, min key, max key) both ways for every
        #    pair, 24 bytes each way; empty ranks send zeros
        ctrl = np.zeros((P, 3), dtype=np.uint64)
        ctrl[nonempty, 0] = counts[nonempty]
        ctrl[nonempty, 1] = keys[starts[nonempty]]
        ctrl[nonempty, 2] = keys[ends[nonempty] - 1]
        exchange_pairs(machine, [(a, b, ctrl[a], ctrl[b]) for a, b in round_pairs], phase)
        # 2. the pairs whose runs overlap; windows are a suffix of a (keys
        #    >= b.min) and a prefix of b (keys <= a.max)
        ca, cb = ctrl[pairs[:, 0]], ctrl[pairs[:, 1]]
        overlap = (ca[:, 0] > 0) & (cb[:, 0] > 0) & (ca[:, 2] > cb[:, 1])
        if not overlap.any():
            continue  # already ordered: no particle data moves
        a, b = pairs[overlap, 0], pairs[overlap, 1]
        na_win = np.empty(a.shape[0], dtype=np.int64)
        nb_win = np.empty(a.shape[0], dtype=np.int64)
        for i, (ra, rb) in enumerate(zip(a.tolist(), b.tolist())):
            na_win[i] = counts[ra] - np.searchsorted(
                keys[starts[ra]:ends[ra]], ctrl[rb, 1], side="left"
            )
            nb_win[i] = np.searchsorted(keys[starts[rb]:ends[rb]], ctrl[ra, 2], side="right")
        a_lo, a_hi = ends[a] - na_win, ends[a]
        b_lo, b_hi = starts[b], starts[b] + nb_win
        # 3. window exchange (both directions overlap, one message each way);
        #    the payloads are row views of the buffer
        exchange_pairs(
            machine,
            [
                (
                    ra, rb,
                    tuple(c[lo_a:hi_a] for c in columns),
                    tuple(c[lo_b:hi_b] for c in columns),
                )
                for ra, rb, lo_a, hi_a, lo_b, hi_b in zip(
                    a.tolist(), b.tolist(), a_lo.tolist(), a_hi.tolist(),
                    b_lo.tolist(), b_hi.tolist(),
                )
            ],
            phase,
        )
        # 4. merge each pair's (a-window, b-window) rows with one stable sort
        #    by (pair, key) and write them back to the same rows: a keeps the
        #    lowest na_win, b the highest nb_win — the permutation both sides
        #    of a pair derive from the identical combined window
        w = na_win + nb_win
        rows = row_ranges(
            np.stack([a_lo, b_lo], axis=1).ravel(),
            np.stack([na_win, nb_win], axis=1).ravel(),
        )
        order = np.lexsort((keys[rows], np.repeat(np.arange(w.shape[0]), w)))
        moved = rows[order]
        for column in columns:
            column[rows] = column[moved]
        merge_cost = np.zeros(P, dtype=np.float64)
        big = w > 1
        cost = kernels.SORT_STEP * w[big] * np.log2(w[big])
        merge_cost[a[big]] = cost
        merge_cost[b[big]] = cost
        machine.compute(merge_cost, phase)

    out = [buffer.row_slice(s, e) for s, e in zip(starts.tolist(), ends.tolist())]
    if not verify:
        return out, True
    return out, _verify_sorted(machine, out, key, phase)


def _verify_sorted(
    machine: Machine,
    blocks: Sequence[ColumnBlock],
    key: str,
    phase: Optional[str],
) -> bool:
    """Boundary-key ring check plus a small reduction of the ok-flags."""
    from repro.simmpi.collectives import allreduce
    from repro.simmpi.p2p import send_round

    P = machine.nprocs
    nonempty = [r for r in range(P) if blocks[r].n]
    # each non-empty rank sends its max key to the next non-empty rank
    transfers = []
    for i in range(len(nonempty) - 1):
        src, dst = nonempty[i], nonempty[i + 1]
        transfers.append((src, dst, np.asarray([blocks[src][key][-1]])))
    recv = send_round(machine, transfers, phase)
    ok = np.ones(P)
    for r in range(P):
        for _src, payload in recv[r]:
            if blocks[r].n and payload[0] > blocks[r][key][0]:
                ok[r] = 0.0
    return bool(allreduce(machine, ok, op="min", phase=phase) > 0.5)
