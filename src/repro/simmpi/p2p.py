"""Point-to-point communication primitives.

These are the transport of the merge-based parallel sorting method [15]
(pairwise merge-exchange steps of Batcher's network) and of generic
send/receive rounds.  Unlike the collectives, point-to-point operations only
advance the clocks of the ranks involved, so load imbalance and pipelining
across rounds are modeled faithfully.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi.collectives import Payload, payload_nbytes
from repro.simmpi.machine import Machine

__all__ = ["send_round", "exchange_pairs", "sendrecv"]


def _route(machine: Machine, transfers: Sequence[Tuple[int, int, Payload]]):
    """The payloads of a batch of ``(src, dst, payload)`` as observed at the
    destinations, in input order: the sender's objects (the in-process
    handoff).  Pure data plane: charging never happens here."""
    return [payload for _src, _dst, payload in transfers]


def _check_transfers(machine: Machine, transfers: Sequence[Tuple[int, int, Payload]]) -> None:
    """Reject an invalid rank *before* any auditing, routing or charging."""
    for src, dst, _payload in transfers:
        machine.check_rank(src)
        machine.check_rank(dst)


def _check_pairs(
    machine: Machine, exchanges: Sequence[Tuple[int, int, Payload, Payload]]
) -> np.ndarray:
    """The ``(n, 2)`` rank table of a comparator round, validated up front.

    Every rank must be valid and appear at most once, and no pair may
    exchange with itself.  The vectorized test only detects a bad round;
    the scalar walk then raises the error of the first bad pair in order.
    """
    pairs = np.asarray([(a, b) for a, b, _pa, _pb in exchanges], dtype=np.int64)
    pairs = pairs.reshape(len(exchanges), 2)
    ranks = pairs.ravel()
    if ranks.size and (
        ranks.min() < 0
        or ranks.max() >= machine.nprocs
        or np.bincount(ranks).max() > 1
    ):
        seen: set = set()
        for a, b, _pa, _pb in exchanges:
            a = machine.check_rank(a)
            b = machine.check_rank(b)
            if a == b:
                raise ValueError(f"pair ({a}, {b}) exchanges with itself")
            for r in (a, b):
                if r in seen:
                    raise ValueError(f"rank {r} appears in more than one exchange")
                seen.add(r)
    return pairs


def sendrecv(
    machine: Machine,
    src: int,
    dst: int,
    payload: Payload,
    phase: Optional[str] = None,
) -> Payload:
    """Single message from ``src`` to ``dst``; returns the payload.

    The receiver clock becomes ``max(receiver, sender + message time)`` —
    a receive cannot complete before the matching send arrives.
    """
    src = machine.check_rank(src)
    dst = machine.check_rank(dst)
    nbytes = payload_nbytes(payload)
    if machine.auditor is not None:
        machine.auditor.observe_sendrecv(src, dst, nbytes, phase)
    if src == dst:
        machine.copy(nbytes, phase)
        return payload
    obs = machine.obs
    clocks_before = machine.clocks.copy() if obs is not None else None
    model = machine.model
    hops = int(machine.topology.hops(src, dst))
    before = machine.clocks.max()
    send_done = machine.clocks[src] + model.overhead + float(model.copy_time(nbytes))
    # a message is as slow as its slowest endpoint (degraded-NIC perturbation)
    arrival = (
        send_done
        + float(model.msg_time(hops, nbytes)) * machine.comm_factor(src, dst)
        - model.overhead
    )
    machine.clocks[src] = send_done
    machine.clocks[dst] = max(machine.clocks[dst] + model.overhead, arrival) + float(
        model.copy_time(nbytes)
    )
    t = float(machine.clocks.max() - before)
    machine.trace.record(phase, time=t, messages=1, nbytes=nbytes)
    if obs is not None:
        obs.on_charge(
            phase, "sendrecv", t, float(before), float(machine.clocks.max()),
            1, nbytes, clocks_before, machine.clocks,
        )
    return _route(machine, [(src, dst, payload)])[0]


def send_round(
    machine: Machine,
    transfers: Sequence[Tuple[int, int, Payload]],
    phase: Optional[str] = None,
    *,
    op: str = "send_round",
) -> List[List[Tuple[int, Payload]]]:
    """A round of independent messages ``(src, dst, payload)``.

    Messages from the same source are serialized (one NIC per rank);
    messages to the same destination are serialized on receive.  Returns
    ``recv[j]`` as source-sorted ``(src, payload)`` pairs.

    ``op`` names the charging primitive in the span stream; the staged
    collective engines (:mod:`repro.simmpi.algos`) tag their rounds with
    the owning algorithm (e.g. ``"alltoallv.bruck"``).
    """
    _check_transfers(machine, transfers)
    model = machine.model
    if machine.auditor is not None:
        machine.auditor.observe_send_round(transfers, phase)
    obs = machine.obs
    clocks_before = machine.clocks.copy() if obs is not None else None
    recv: List[List[Tuple[int, Payload]]] = [[] for _ in range(machine.nprocs)]
    before = machine.clocks.max()
    n_messages = 0
    total_bytes = 0
    # sends post first (non-blocking), receives complete afterwards
    arrivals: List[Tuple[int, float, Payload, int]] = []
    delivered = _route(machine, transfers)
    for (src, dst, payload), received in zip(transfers, delivered):
        src = machine.check_rank(src)
        dst = machine.check_rank(dst)
        nbytes = payload_nbytes(payload)
        if src == dst:
            machine.clocks[src] += float(model.copy_time(nbytes))
            recv[dst].append((src, received))
            continue
        hops = int(machine.topology.hops(src, dst))
        send_done = machine.clocks[src] + model.overhead + float(model.copy_time(nbytes))
        arrival = (
            send_done
            + float(model.msg_time(hops, nbytes)) * machine.comm_factor(src, dst)
            - model.overhead
        )
        machine.clocks[src] = send_done
        arrivals.append((dst, arrival, received, src))
        n_messages += 1
        total_bytes += nbytes
    for dst, arrival, payload, src in arrivals:
        nbytes = payload_nbytes(payload)
        machine.clocks[dst] = max(machine.clocks[dst] + model.overhead, arrival) + float(
            model.copy_time(nbytes)
        )
        recv[dst].append((src, payload))
    for lst in recv:
        lst.sort(key=lambda item: item[0])
    t = float(machine.clocks.max() - before)
    machine.trace.record(phase, time=t, messages=n_messages, nbytes=total_bytes)
    if obs is not None:
        obs.on_charge(
            phase, op, t, float(before), float(machine.clocks.max()),
            n_messages, total_bytes, clocks_before, machine.clocks,
        )
    return recv


def exchange_pairs(
    machine: Machine,
    exchanges: Sequence[Tuple[int, int, Payload, Payload]],
    phase: Optional[str] = None,
) -> Dict[Tuple[int, int], Tuple[Payload, Payload]]:
    """Simultaneous pairwise exchanges ``(a, b, payload_a_to_b, payload_b_to_a)``.

    Both directions overlap (MPI_Sendrecv): each side pays its send overhead
    plus the arrival of the other side's message.  Each rank may appear in at
    most one pair per call (a comparator round of a sorting network), so the
    pairs are independent and are charged together, elementwise over arrays.

    Returns a dict mapping ``(a, b)`` to ``(received_at_a, received_at_b)``
    i.e. ``(payload_b_to_a, payload_a_to_b)``.
    """
    pairs = _check_pairs(machine, exchanges)
    model = machine.model
    if machine.auditor is not None:
        machine.auditor.observe_exchange_pairs(exchanges, phase)
    obs = machine.obs
    clocks_before = machine.clocks.copy() if obs is not None else None
    before = machine.clocks.max()
    # both directions of every pair ship as one round
    delivered = _route(
        machine,
        [m for a, b, pa, pb in exchanges for m in ((a, b, pa), (b, a, pb))],
    )
    sizes = np.asarray(
        [payload_nbytes(p) for _a, _b, pa, pb in exchanges for p in (pa, pb)],
        dtype=np.int64,
    ).reshape(len(exchanges), 2)
    if len(exchanges):
        a, b = pairs[:, 0], pairs[:, 1]
        bytes_ab, bytes_ba = sizes[:, 0], sizes[:, 1]
        clocks = machine.clocks
        hops = machine.topology.hops(a, b)
        factors = machine.comm_factors
        # a message is as slow as its slowest endpoint; exactly 1.0 (the
        # float identity) on an unperturbed machine
        pair_factor = 1.0 if factors is None else np.maximum(factors[a], factors[b])
        post_a = clocks[a] + model.overhead + model.copy_time(bytes_ab)
        post_b = clocks[b] + model.overhead + model.copy_time(bytes_ba)
        arrive_at_b = post_a + model.msg_time(hops, bytes_ab) * pair_factor - model.overhead
        arrive_at_a = post_b + model.msg_time(hops, bytes_ba) * pair_factor - model.overhead
        clocks[a] = np.maximum(post_a, arrive_at_a) + model.copy_time(bytes_ba)
        clocks[b] = np.maximum(post_b, arrive_at_b) + model.copy_time(bytes_ab)
    out = {
        (a, b): (delivered[2 * i + 1], delivered[2 * i])
        for i, (a, b) in enumerate(pairs.tolist())
    }
    n_messages = 2 * len(exchanges)
    total_bytes = int(sizes.sum())
    t = float(machine.clocks.max() - before)
    machine.trace.record(phase, time=t, messages=n_messages, nbytes=total_bytes)
    if obs is not None:
        obs.on_charge(
            phase, "exchange_pairs", t, float(before), float(machine.clocks.max()),
            n_messages, total_bytes, clocks_before, machine.clocks,
        )
    return out
