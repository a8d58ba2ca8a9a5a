"""Delivery aliasing contract (docs/backends.md).

Payloads are always delivered **by reference**: the received array IS the
sender's array object, for self-sends (MPI local delivery) and inter-rank
messages alike.

The corollary every call site must honor: received payloads are read-only.
Mutating one in place silently corrupts sender state.
:func:`read_only_delivery` hands out write-protected views of inter-rank
payloads at the two delivery seams (``collectives._deliver`` and
``p2p._route``), turning such a mutation into a hard ``ValueError``, and a
short simulation matrix sweeps the redistribution call sites under it,
staged algorithm engines included.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.simmpi import Machine, collectives, p2p
from repro.simmpi.collectives import alltoallv
from repro.simmpi.p2p import send_round


# ----------------------------------------------------------- the contract


class TestInProcessAliasing:
    def test_alltoallv_delivers_references(self):
        machine = Machine(3)
        block = np.arange(4.0)
        recv = alltoallv(machine, [{1: block}, {}, {}], "sort")
        ((src, delivered),) = recv[1]
        assert src == 0
        assert delivered is block

    def test_self_send_returns_original_object(self):
        machine = Machine(3)
        block = np.arange(4.0)
        recv = alltoallv(machine, [{0: block}, {}, {}], "sort")
        assert recv[0][0][1] is block

    def test_send_round_delivers_references(self):
        machine = Machine(2)
        payload = (np.arange(3.0), np.arange(3))
        ((_, delivered),) = send_round(machine, [(0, 1, payload)], "sort")[1]
        assert delivered is payload

    def test_staged_engine_final_recv_references_shipped_columns(self):
        # pairwise ships each payload exactly once: reference delivery
        # survives the staged round
        machine = Machine(2)
        machine.set_collective_algos("alltoallv=pairwise")
        block = np.arange(5.0)
        recv = alltoallv(machine, [{1: block}, {}], "sort")
        assert recv[1][0][1] is block


# --------------------------------------- mutation sweep over the call sites


def _protect(payload):
    def view(arr):
        out = arr.view()
        out.flags.writeable = False
        return out

    if payload is None:
        return None
    if isinstance(payload, np.ndarray):
        return view(payload)
    if isinstance(payload, tuple):
        return tuple(view(a) for a in payload)
    return [view(a) for a in payload]


@contextlib.contextmanager
def read_only_delivery():
    """Deliver inter-rank payloads as write-protected views.

    Any call site that mutates a received payload in place — which would
    corrupt the sender's state under reference delivery — raises
    ``ValueError: assignment destination is read-only`` instead.
    Self-transfers keep the original writable object.  A flat
    :class:`~repro.simmpi.collectives.FlatSends` exchange is not touched:
    its receive buffer is the send buffer the exchange built, owned by the
    receivers alone.
    """
    deliver, route = collectives._deliver, p2p._route

    def protected_deliver(machine, sends):
        return deliver(
            machine,
            [
                {dst: (p if dst == src else _protect(p)) for dst, p in targets.items()}
                for src, targets in enumerate(sends)
            ],
        )

    def protected_route(machine, transfers):
        return route(
            machine,
            [(src, dst, p if dst == src else _protect(p)) for src, dst, p in transfers],
        )

    collectives._deliver, p2p._route = protected_deliver, protected_route
    try:
        yield
    finally:
        collectives._deliver, p2p._route = deliver, route


@pytest.fixture
def read_only():
    with read_only_delivery():
        yield


def test_read_only_delivery_protects_inter_rank_payloads_only(read_only):
    machine = Machine(3)
    block, own = np.arange(4.0), np.arange(2.0)
    recv = alltoallv(machine, [{1: block, 0: own}, {}, {}], "sort")
    assert recv[0][0][1] is own
    ((_, delivered),) = recv[1]
    assert not delivered.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        delivered += 1.0
    payload = (np.arange(3.0), np.arange(3))
    ((_, routed),) = send_round(machine, [(0, 2, payload)], "sort")[2]
    assert not any(col.flags.writeable for col in routed)
    np.testing.assert_array_equal(block, np.arange(4.0))


@pytest.mark.parametrize(
    "solver,method", [("direct", "A"), ("fmm", "B+move"), ("p2nfft", "B+move")]
)
@pytest.mark.parametrize(
    "algos", [None, "bruck+binomial-tree+allgatherv=ring", "alltoallv=pairwise"]
)
def test_no_call_site_mutates_received_payloads(read_only, solver, method, algos):
    machine = Machine(4)
    system = silica_melt_system(24, seed=0)
    config = SimulationConfig(
        solver=solver, method=method, seed=0, collective_algos=algos
    )
    sim = Simulation(machine, system, config)
    try:
        sim.run(2)
    finally:
        sim.fcs.destroy()


def test_fmm_merge_windows_do_not_mutate_received_payloads(read_only, monkeypatch):
    """The sweep above never moves merge-exchange windows (its runs stay
    ordered); a drifting grid does, so the in-place window merge of the
    flat sort buffer runs under read-only delivery too."""
    import repro.sorting.merge_sort as merge_sort

    merges = []
    row_ranges = merge_sort.row_ranges
    monkeypatch.setattr(
        merge_sort, "row_ranges", lambda *args: merges.append(1) or row_ranges(*args)
    )
    machine = Machine(4)
    config = SimulationConfig(
        solver="fmm", method="B+move", seed=0, dynamics="brownian",
        distribution="grid", solver_kwargs={"compute": "skip"},
    )
    sim = Simulation(machine, silica_melt_system(96, seed=0), config)
    try:
        sim.run(3)
    finally:
        sim.fcs.destroy()
    assert merges, "no merge-exchange window moved"
