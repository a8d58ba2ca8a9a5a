"""Collective communication primitives.

All primitives move **real data** between per-rank NumPy arrays and charge
modeled time to the machine clocks.  The data plane uses the following
conventions:

* a *distributed value* is a Python list of length ``nprocs`` whose ``i``-th
  entry is rank ``i``'s local data;
* sparse send specifications are ``list[dict[int, payload]]`` — rank ``i``
  sends ``sends[i][j]`` to rank ``j``; absent keys mean "nothing to send"
  and cost nothing beyond the count exchange;
* a *payload* is an ``ndarray`` or a tuple of ``ndarray`` columns that travel
  together in one message (structure-of-arrays particle data); its size is
  the sum of the column ``nbytes``.

The all-to-all primitives implement the cost semantics of the paper's
fine-grained data redistribution operation [13,14]: a dense
``MPI_Alltoall`` count exchange followed by point-to-point transfers of the
non-empty blocks.  ``count_exchange="sparse"`` models the neighborhood
variant (Sect. III-B) where the communication structure is known a priori
and the dense count exchange is skipped — this is the primitive whose cost
advantage produces the Fig. 9 (right) crossover.

Algorithm engines
-----------------
By default every collective charges one closed-form LogGP formula (the
``direct`` algorithm — byte-identical to the historical behavior).  With
:meth:`Machine.set_collective_algos
<repro.simmpi.machine.Machine.set_collective_algos>` the collectives route
through the staged per-algorithm engines of :mod:`repro.simmpi.algos`
(pairwise/Bruck alltoallv, ring/recursive-doubling allgatherv,
binomial-tree/recursive-halving-doubling allreduce, binomial trees for the
rooted collectives) which ship the same real data through explicit
:func:`~repro.simmpi.p2p.send_round` rounds with per-hop charging.  Every
algorithm returns bitwise-identical payloads; only modeled clocks and
message/byte totals differ.

Delivery aliasing contract
--------------------------
Payloads are always delivered *by reference*: the received array **is**
the sender's array object (for a self-send too, MPI's local delivery).
Receivers therefore MUST NOT mutate received payloads in place; doing so
silently corrupts sender state.  Treat every received payload as read-only
and copy before writing — the read-only delivery sweep of the test suite
hands out write-protected views to catch any call site that does not.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi.machine import Machine

__all__ = [
    "FlatSends",
    "message_table",
    "payload_nbytes",
    "alltoallv",
    "neighborhood_alltoallv",
    "allgatherv",
    "allgather_scalars",
    "allreduce",
    "bcast",
    "gatherv",
    "scatterv",
]

Payload = object  # ndarray or tuple/list of ndarrays


def payload_nbytes(payload: Payload) -> int:
    """Total byte size of a payload (array or tuple of arrays)."""
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (tuple, list)):
        return sum(p.nbytes for p in payload)
    raise TypeError(f"unsupported payload type {type(payload)!r}")


def _validate_sends(nprocs: int, sends: Sequence[Dict[int, Payload]]) -> None:
    """Reject invalid destination ranks *before* any auditing or charging:
    a rejected call raises ``ValueError`` with no auditor ledger entry and
    no clock movement."""
    for src, targets in enumerate(sends):
        for dst in targets:
            if not 0 <= dst < nprocs:
                raise ValueError(f"rank {src} sends to invalid rank {dst}")


def _algo_for(machine: Machine, collective: str) -> Optional[str]:
    """The configured non-direct algorithm for ``collective``, or ``None``.

    ``None`` keeps the historical closed-form path (and is the only
    possibility when no :class:`~repro.simmpi.algos.CollectiveAlgos` is
    attached, or on a single-rank machine where no algorithm stages any
    message).  The returned name may still be ``"auto"``; the caller
    resolves it per call.
    """
    algos = machine.collective_algos
    if algos is None or machine.nprocs == 1:
        return None
    algo = getattr(algos, collective)
    return None if algo == "direct" else algo


def message_table(sends: Sequence[Dict[int, Payload]]) -> np.ndarray:
    """The ``(srcs, dsts, sizes)`` int64 rows of a dict send table, one
    column per message (self-sends included), in source-major order."""
    table = [
        (src, dst, payload_nbytes(payload))
        for src, targets in enumerate(sends)
        for dst, payload in targets.items()
    ]
    return np.array(table, dtype=np.int64).reshape(-1, 3).T


def _charge_alltoall(
    machine: Machine,
    srcs: np.ndarray,
    dsts: np.ndarray,
    sizes: np.ndarray,
    phase: Optional[str],
    count_exchange: str,
) -> None:
    """Audit and charge one all-to-all exchange, whichever send table form
    carried it.

    ``(srcs, dsts, sizes)`` lists one entry per message; self-sends are
    local moves and cost nothing here.
    """
    if machine.auditor is not None:
        machine.auditor.observe_exchange(srcs, dsts, sizes, phase, count_exchange)
    P = machine.nprocs
    model = machine.model
    topo = machine.topology

    remote = srcs != dsts
    srcs = srcs[remote]
    dsts = dsts[remote]
    sizes = sizes[remote].astype(np.float64)
    n_messages = int(srcs.shape[0])

    n_targets = np.bincount(srcs, minlength=P).astype(np.int64)
    send_bytes = np.bincount(srcs, weights=sizes, minlength=P)
    recv_bytes = np.bincount(dsts, weights=sizes, minlength=P)
    if n_messages:
        hops = topo.hops(srcs, dsts)
        inter = hops > 0
        total_internode = float(sizes[inter].sum())
        hop_weight = float(sizes.sum())
        avg_hops = (
            float((hops * sizes).sum()) / hop_weight
            if hop_weight > 0
            else float(topo.diameter()) / 2.0
        )
    else:
        total_internode = 0.0
        avg_hops = float(topo.diameter()) / 2.0

    machine.synchronize()
    per_rank = model.alltoall_rank_time(n_targets, send_bytes, recv_bytes, avg_hops)
    per_rank = per_rank + model.copy_time(send_bytes + recv_bytes)
    if count_exchange == "dense":
        # MPI_Alltoall of one count integer (8 bytes) per peer, modeled as
        # Bruck's algorithm (what MPI implementations use for tiny items)
        per_rank = per_rank + model.bruck_alltoall_time(P, 8.0, topo.diameter())
    bis = model.bisection_time(total_internode, topo.bisection_links())
    per_rank = np.maximum(per_rank, bis)
    if machine.comm_factors is not None:
        # a degraded NIC slows down every message that rank posts or receives
        per_rank = per_rank * machine.comm_factors
    machine.advance(
        per_rank,
        phase,
        messages=n_messages,
        nbytes=int(send_bytes.sum()),
        op="alltoallv",
    )


def _deliver(
    machine: Machine, sends: Sequence[Dict[int, Payload]]
) -> List[List[Tuple[int, Payload]]]:
    """Move payloads: ``recv[j]`` is a source-ordered list of ``(src, payload)``
    referencing the senders' payload objects.

    Charging happened before this point — delivery is pure data plane.
    Aliasing contract: see the module docstring; receivers must treat
    payloads as read-only.
    """
    recv: List[List[Tuple[int, Payload]]] = [[] for _ in range(machine.nprocs)]
    for src, targets in enumerate(sends):
        for dst, payload in targets.items():
            recv[dst].append((src, payload))
    return recv


class FlatSends(NamedTuple):
    """An all-to-all send table as one row buffer plus a message table.

    ``columns`` hold every message's rows back to back, messages in
    ascending ``(dst, src)`` order; message ``i`` moves ``counts[i]`` rows
    (``counts[i]`` times the row size in bytes) from rank ``srcs[i]`` to
    rank ``dsts[i]``.  The rows already sit in receive order, so the send
    buffer *is* the receive buffer: rank ``j`` receives the contiguous rows
    of the messages with ``dsts == j``, grouped by source.  The message
    table arrays are int64.
    """

    columns: Tuple[np.ndarray, ...]
    srcs: np.ndarray
    dsts: np.ndarray
    counts: np.ndarray

    def sizes(self) -> np.ndarray:
        """Bytes per message."""
        row_bytes = sum(c.itemsize * int(np.prod(c.shape[1:])) for c in self.columns)
        return self.counts * row_bytes

    def validate(self, nprocs: int) -> None:
        """Reject a malformed table before any auditing or charging."""
        srcs, dsts, counts = self.srcs, self.dsts, self.counts
        bad = np.flatnonzero((srcs < 0) | (srcs >= nprocs) | (dsts < 0) | (dsts >= nprocs))
        if bad.size:
            raise ValueError(f"rank {srcs[bad[0]]} sends to invalid rank {dsts[bad[0]]}")
        key = dsts * nprocs + srcs
        if (
            np.any(key[1:] <= key[:-1])
            or np.any(counts < 0)
            or any(c.shape[0] != counts.sum() for c in self.columns)
        ):
            raise ValueError("messages must ascend in (dst, src) and cover the buffer rows")

    def delivered(self, recv: List[List[Tuple[int, Payload]]]) -> "FlatSends":
        """This table over the buffer rebuilt from the dict-form ``recv``
        of the same exchange (already in ``(dst, src)`` order)."""
        payloads = [payload for lst in recv for _src, payload in lst]
        if not payloads:
            return self
        return self._replace(columns=tuple(
            np.concatenate([p[c] for p in payloads]) for c in range(len(self.columns))
        ))

    def as_dict(self, nprocs: int) -> List[Dict[int, Payload]]:
        """The dict send table over zero-copy row slices of the buffer."""
        sends: List[Dict[int, Payload]] = [{} for _ in range(nprocs)]
        ends = np.cumsum(self.counts).tolist()
        for src, dst, start, end in zip(self.srcs.tolist(), self.dsts.tolist(), [0] + ends, ends):
            sends[src][dst] = tuple(c[start:end] for c in self.columns)
        return sends


def alltoallv(
    machine: Machine,
    sends: Sequence[Dict[int, Payload]] | FlatSends,
    phase: Optional[str] = None,
    *,
    count_exchange: str = "dense",
) -> List[List[Tuple[int, Payload]]] | FlatSends:
    """Sparse all-to-all exchange (the fine-grained redistribution transport).

    Parameters
    ----------
    sends:
        ``sends[i][j]`` is the payload rank ``i`` sends to rank ``j``, or a
        :class:`FlatSends` holding the same table as one buffer.
        Self-sends are delivered for free (local move, charged as a copy).
    count_exchange:
        ``"dense"`` (default) charges the ``MPI_Alltoall`` count exchange
        that a general redistribution needs; ``"sparse"`` skips it (known
        neighborhood communication structure, peer-checked by an attached
        auditor); ``"cached"`` also skips it — the counts are part of a
        precompiled communication schedule (a
        :class:`~repro.core.plan.ResortPlan`), which may target arbitrary
        ranks, so no neighborhood contract applies.

    Returns
    -------
    For a dict table, ``recv`` with ``recv[j]`` a list of ``(source_rank,
    payload)`` sorted by source rank, matching MPI's per-source
    receive-block semantics.  For a :class:`FlatSends`, the received
    :class:`FlatSends`: the same message table over the delivered buffer
    (the send buffer itself under in-process delivery).  Both forms charge
    and audit the same ``(srcs, dsts, sizes)`` message arrays.
    """
    P = machine.nprocs
    if count_exchange not in ("dense", "sparse", "cached"):
        raise ValueError(
            f"count_exchange must be 'dense', 'sparse' or 'cached', got {count_exchange!r}"
        )
    flat = sends if isinstance(sends, FlatSends) else None
    if flat is not None:
        flat.validate(P)
        if _algo_for(machine, "alltoallv") is None:
            _charge_alltoall(machine, flat.srcs, flat.dsts, flat.sizes(), phase, count_exchange)
            return flat
        # staged engines move dict tables: they get a zero-copy dict view
        # of the flat table
        sends = flat.as_dict(P)
    if len(sends) != P:
        raise ValueError(f"sends has {len(sends)} entries, machine has {P} ranks")
    _validate_sends(P, sends)
    recv = None
    algo = _algo_for(machine, "alltoallv")
    if algo is not None:
        from repro.simmpi import algos as _algos

        resolved = _algos.resolve(machine, "alltoallv", algo, sends=sends)
        _algos.record_choice(machine, "alltoallv", resolved)
        if resolved != "direct":
            recv = _algos.alltoallv_staged(
                machine, sends, phase, count_exchange=count_exchange, algo=resolved
            )
    if recv is None:
        _charge_alltoall(machine, *message_table(sends), phase, count_exchange)
        recv = _deliver(machine, sends)
    return recv if flat is None else flat.delivered(recv)


def neighborhood_alltoallv(
    machine: Machine,
    sends: Sequence[Dict[int, Payload]] | FlatSends,
    phase: Optional[str] = None,
) -> List[List[Tuple[int, Payload]]] | FlatSends:
    """Neighborhood exchange: all-to-all restricted to known peers.

    Identical data plane to :func:`alltoallv` but modeled as pre-posted
    non-blocking point-to-point communication without the dense count
    exchange (Sect. III-B of the paper).  Callers are responsible for only
    sending to actual neighbors; the cost advantage over :func:`alltoallv`
    is the per-peer (instead of per-rank) message overhead.
    """
    return alltoallv(machine, sends, phase, count_exchange="sparse")


def allgatherv(
    machine: Machine,
    contributions: Sequence[np.ndarray],
    phase: Optional[str] = None,
) -> List[np.ndarray]:
    """Every rank receives the concatenation of all contributions.

    Modeled as a ring/bruck allgather: each rank ultimately receives the
    full concatenated volume; latency is logarithmic.
    """
    P = machine.nprocs
    if len(contributions) != P:
        raise ValueError(f"{len(contributions)} contributions for {P} ranks")
    arrays = [np.ascontiguousarray(a) for a in contributions]
    total_bytes = float(sum(a.nbytes for a in arrays))
    algo = _algo_for(machine, "allgatherv")
    if algo is not None:
        from repro.simmpi import algos as _algos

        resolved = _algos.resolve(machine, "allgatherv", algo, nbytes=total_bytes)
        _algos.record_choice(machine, "allgatherv", resolved)
        if resolved != "direct":
            return _algos.allgatherv_staged(machine, arrays, phase, resolved)
    machine.synchronize()
    t = machine.model.tree_collective_time(P, 0.0, machine.topology.diameter())
    t += (P - 1) / max(P, 1) * total_bytes / machine.model.bandwidth if P > 1 else 0.0
    t *= machine.comm_factor()
    t += float(machine.model.copy_time(total_bytes))
    if machine.auditor is not None:
        machine.auditor.observe_collective(
            phase, max(0, P - 1) * 1, int(total_bytes) * max(0, P - 1)
        )
    machine.advance(t, phase, messages=max(0, P - 1) * 1, nbytes=int(total_bytes) * max(0, P - 1), op="allgatherv")
    gathered = np.concatenate(arrays) if arrays else np.empty(0)
    return [gathered.copy() for _ in range(P)] if P > 1 else [gathered]


def allgather_scalars(
    machine: Machine,
    values: Sequence[float] | np.ndarray,
    phase: Optional[str] = None,
) -> np.ndarray:
    """Allgather of one scalar per rank; returns the shared vector."""
    P = machine.nprocs
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != (P,):
        raise ValueError(f"expected shape ({P},), got {vals.shape}")
    machine.synchronize()
    t = machine.model.tree_collective_time(P, 8.0 * P, machine.topology.diameter())
    t *= machine.comm_factor()
    if machine.auditor is not None:
        machine.auditor.observe_collective(phase, 2 * max(0, P - 1), 8 * P * max(0, P - 1))
    machine.advance(t, phase, messages=2 * max(0, P - 1), nbytes=8 * P * max(0, P - 1), op="allgather")
    return vals.copy()


def allreduce(
    machine: Machine,
    values: Sequence | np.ndarray,
    op: str = "sum",
    phase: Optional[str] = None,
) -> np.ndarray | float:
    """Reduce per-rank values with ``op`` in {'sum','max','min'}; all ranks get the result.

    ``values`` is a length-``nprocs`` sequence of scalars or equal-shape
    arrays (one per rank).

    Integer inputs (every rank contributing a signed/unsigned integer
    dtype) reduce **exactly** in their promoted integer dtype and the
    result preserves it — no round trip through ``float64``, which silently
    rounds values above ``2**53``.  Scalar integer reductions return a
    NumPy integer scalar; everything else keeps the historical float path
    bitwise-identical.
    """
    P = machine.nprocs
    if len(values) != P:
        raise ValueError(f"{len(values)} values for {P} ranks")
    as_given = [np.asarray(v) for v in values]
    int_exact = all(a.dtype.kind in "iu" for a in as_given)
    if int_exact:
        work_dtype = np.result_type(*as_given)
        stacked = np.asarray([a.astype(work_dtype, copy=False) for a in as_given])
    else:
        stacked = np.asarray([np.asarray(v, dtype=np.float64) for v in values])
    if op == "sum":
        result = stacked.sum(axis=0)
    elif op == "max":
        result = stacked.max(axis=0)
    elif op == "min":
        result = stacked.min(axis=0)
    else:
        raise ValueError(f"unsupported op {op!r}")
    if int_exact:
        item_bytes = float(stacked[0].nbytes)
    else:
        item_bytes = float(np.asarray(values[0], dtype=np.float64).nbytes)
    algo = _algo_for(machine, "allreduce")
    if algo is not None:
        from repro.simmpi import algos as _algos

        resolved = _algos.resolve(machine, "allreduce", algo, nbytes=item_bytes)
        _algos.record_choice(machine, "allreduce", resolved)
        if resolved != "direct":
            # the staged engine only models (and really ships) the traffic;
            # the result stays the canonical rank-ordered reduction above,
            # because a tree reduction would reassociate float sums
            vecs = [
                np.ascontiguousarray(np.atleast_1d(stacked[i])) for i in range(P)
            ]
            _algos.allreduce_staged(
                machine, vecs, np.ascontiguousarray(np.atleast_1d(result)),
                phase, resolved,
            )
            if result.ndim == 0:
                return result[()] if int_exact else float(result)
            return result
    machine.synchronize()
    t = machine.model.tree_collective_time(P, item_bytes, machine.topology.diameter())
    t *= machine.comm_factor()
    if machine.auditor is not None:
        machine.auditor.observe_collective(
            phase, 2 * max(0, P - 1), int(item_bytes) * 2 * max(0, P - 1)
        )
    machine.advance(t, phase, messages=2 * max(0, P - 1), nbytes=int(item_bytes) * 2 * max(0, P - 1), op="allreduce")
    if result.ndim == 0:
        return result[()] if int_exact else float(result)
    return result


def bcast(
    machine: Machine,
    value: np.ndarray | float,
    root: int = 0,
    phase: Optional[str] = None,
) -> List:
    """Broadcast ``value`` from ``root``; returns per-rank copies."""
    machine.check_rank(root)
    P = machine.nprocs
    arr = np.asarray(value)
    algo = _algo_for(machine, "bcast")
    if algo is not None:
        from repro.simmpi import algos as _algos

        resolved = _algos.resolve(machine, "bcast", algo, nbytes=float(arr.nbytes))
        _algos.record_choice(machine, "bcast", resolved)
        if resolved != "direct":
            _algos.bcast_staged(machine, arr, root, phase, resolved)
            return [np.array(arr, copy=True) if arr.ndim else value for _ in range(P)]
    machine.synchronize()
    t = machine.model.tree_collective_time(P, float(arr.nbytes), machine.topology.diameter())
    t *= machine.comm_factor()
    if machine.auditor is not None:
        machine.auditor.observe_collective(phase, max(0, P - 1), arr.nbytes * max(0, P - 1))
    machine.advance(t, phase, messages=max(0, P - 1), nbytes=arr.nbytes * max(0, P - 1), op="bcast")
    return [np.array(arr, copy=True) if arr.ndim else value for _ in range(P)]


def gatherv(
    machine: Machine,
    contributions: Sequence[np.ndarray],
    root: int = 0,
    phase: Optional[str] = None,
) -> List[np.ndarray]:
    """Gather variable-size arrays at ``root`` (others receive empty arrays)."""
    machine.check_rank(root)
    P = machine.nprocs
    if len(contributions) != P:
        raise ValueError(f"{len(contributions)} contributions for {P} ranks")
    arrays = [np.ascontiguousarray(a) for a in contributions]
    total_bytes = float(sum(a.nbytes for i, a in enumerate(arrays) if i != root))
    algo = _algo_for(machine, "gatherv")
    if algo is not None:
        from repro.simmpi import algos as _algos

        resolved = _algos.resolve(machine, "gatherv", algo, nbytes=total_bytes)
        _algos.record_choice(machine, "gatherv", resolved)
        if resolved != "direct":
            _algos.gatherv_staged(machine, arrays, root, phase, resolved)
            result = [
                np.empty((0,) + arrays[0].shape[1:], dtype=arrays[0].dtype)
                for _ in range(P)
            ]
            result[root] = np.concatenate(arrays) if arrays else np.empty(0)
            return result
    machine.synchronize()
    # root serializes P-1 receives; senders each pay one message
    model = machine.model
    per_rank = np.zeros(P)
    hops = machine.topology.hops(np.full(P, root), np.arange(P))
    for i, a in enumerate(arrays):
        if i == root:
            continue
        per_rank[i] += float(model.msg_time(hops[i], a.nbytes)) * machine.comm_factor(root, i)
    per_rank[root] += (
        model.overhead * (P - 1) + total_bytes / model.bandwidth
    ) * machine.comm_factor(root)
    per_rank[root] += float(model.copy_time(total_bytes))
    if machine.auditor is not None:
        machine.auditor.observe_collective(phase, max(0, P - 1), int(total_bytes))
    machine.advance(per_rank, phase, messages=max(0, P - 1), nbytes=int(total_bytes), op="gatherv")
    result = [np.empty((0,) + arrays[0].shape[1:], dtype=arrays[0].dtype) for _ in range(P)]
    result[root] = np.concatenate(arrays) if arrays else np.empty(0)
    return result


def scatterv(
    machine: Machine,
    parts: Sequence[np.ndarray],
    root: int = 0,
    phase: Optional[str] = None,
) -> List[np.ndarray]:
    """Scatter ``parts[i]`` (held at ``root``) to each rank ``i``.

    The root serializes all sends — this is the communication bottleneck the
    paper demonstrates with the "single process" initial distribution
    (Fig. 6).
    """
    machine.check_rank(root)
    P = machine.nprocs
    if len(parts) != P:
        raise ValueError(f"{len(parts)} parts for {P} ranks")
    arrays = [np.ascontiguousarray(a) for a in parts]
    total_bytes = float(sum(a.nbytes for i, a in enumerate(arrays) if i != root))
    algo = _algo_for(machine, "scatterv")
    if algo is not None:
        from repro.simmpi import algos as _algos

        resolved = _algos.resolve(machine, "scatterv", algo, nbytes=total_bytes)
        _algos.record_choice(machine, "scatterv", resolved)
        if resolved != "direct":
            _algos.scatterv_staged(machine, arrays, root, phase, resolved)
            return [a.copy() for a in arrays]
    machine.synchronize()
    model = machine.model
    per_rank = np.zeros(P)
    hops = machine.topology.hops(np.full(P, root), np.arange(P))
    per_rank[root] += (
        model.overhead * (P - 1) + total_bytes / model.bandwidth
    ) * machine.comm_factor(root)
    per_rank[root] += float(model.copy_time(total_bytes))
    for i, a in enumerate(arrays):
        if i == root:
            continue
        per_rank[i] += float(model.msg_time(hops[i], a.nbytes)) * machine.comm_factor(root, i)
        # receivers cannot finish before the root has pushed everything out
        per_rank[i] = max(per_rank[i], per_rank[root])
    if machine.auditor is not None:
        machine.auditor.observe_collective(phase, max(0, P - 1), int(total_bytes))
    machine.advance(per_rank, phase, messages=max(0, P - 1), nbytes=int(total_bytes), op="scatterv")
    return [a.copy() for a in arrays]
