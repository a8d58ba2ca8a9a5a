"""Differential suite of the flat fine-grained exchange against its oracle.

:func:`per_message_redistribute` below is the per-message implementation
``fine_grained_redistribute`` used before the exchange became one buffer
plus a message table: per source rank it gathers the rank's rows, slices
one sub-block per target, ships a dict send table and concatenates the
received sub-blocks per destination.  It is kept here only as the oracle.
For random cases — duplicating and dropping distribution functions,
self-sends, empty ranks, zero rows in total, 2-D and mixed-dtype columns,
both ``comm`` modes — the flat path must match it in received bytes and
row order, ``machine.elapsed()`` (as float hex), per-phase trace messages
and bytes, and the auditor ledger fingerprint; also under the staged
alltoallv engines and read-only delivery.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.fine_grained import _normalize, fine_grained_redistribute
from repro.core.particles import ColumnBlock
from repro.simmpi import JUROPA, Machine
from repro.simmpi.collectives import alltoallv, neighborhood_alltoallv
from repro.verify.audit import enable_auditing
from repro.verify.dst import ledger_fingerprint

from .test_aliasing import read_only_delivery

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (name, dtype, trailing shape) of the columns a case may carry
COLUMNS = (
    ("ident", np.int64, ()),
    ("pos", np.float64, (3,)),
    ("flag", np.int32, ()),
    ("vec", np.float32, (2,)),
    ("mask", np.uint8, (4,)),
)


def per_message_redistribute(machine, blocks, dist_fn, phase=None, *, comm="alltoall"):
    """The oracle: one payload object per message, one concat per rank."""
    if len(blocks) != machine.nprocs:
        raise ValueError(f"{len(blocks)} blocks for {machine.nprocs} ranks")
    if comm not in ("alltoall", "neighborhood"):
        raise ValueError(f"comm must be 'alltoall' or 'neighborhood', got {comm!r}")
    sends = []
    send_blocks = []
    for rank, block in enumerate(blocks):
        elem_idx, targets = _normalize(block, dist_fn(rank, block))
        per_target = {}
        blocks_out = {}
        if targets.size:
            if targets.min() < 0 or targets.max() >= machine.nprocs:
                raise ValueError(f"rank {rank}: target ranks out of range")
            order = np.argsort(targets, kind="stable")
            sorted_targets = targets[order]
            gathered = block.take(elem_idx[order])
            bounds = np.flatnonzero(np.diff(sorted_targets)) + 1
            starts = np.concatenate(([0], bounds))
            ends = np.concatenate((bounds, [sorted_targets.size]))
            for s, e in zip(starts, ends):
                dst = int(sorted_targets[s])
                sub = gathered.row_slice(int(s), int(e))
                blocks_out[dst] = sub
                per_target[dst] = sub.payload()
        sends.append(per_target)
        send_blocks.append(blocks_out)
    if comm == "alltoall":
        recv = alltoallv(machine, sends, phase)
    else:
        recv = neighborhood_alltoallv(machine, sends, phase)
    out = []
    for dst in range(machine.nprocs):
        received = [send_blocks[src][dst] for src, _payload in recv[dst]]
        if received:
            out.append(ColumnBlock.concat(received))
        else:
            out.append(ColumnBlock.empty_like(blocks[0], 0))
    return out


@st.composite
def cases(draw):
    """(P, blocks, per-rank distribution results, comm)."""
    P = draw(st.integers(min_value=1, max_value=6))
    names = draw(
        st.lists(st.sampled_from(range(len(COLUMNS))), min_size=1, max_size=4, unique=True)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    empty_all = draw(st.booleans()) and draw(st.booleans())
    blocks = []
    results = []
    for rank in range(P):
        n = 0 if empty_all else draw(st.integers(min_value=0, max_value=7))
        cols = {}
        for i in names:
            name, dtype, shape = COLUMNS[i]
            cols[name] = (rng.standard_normal((n,) + shape) * 100).astype(dtype)
        blocks.append(ColumnBlock(**cols))
        style = draw(st.sampled_from(["plain", "self", "duplicate", "drop"]))
        if style == "plain":
            results.append(rng.integers(0, P, n))
        elif style == "self":
            results.append(np.full(n, rank))
        else:
            k = draw(st.integers(min_value=0, max_value=3 * n if style == "duplicate" else n))
            elems = rng.integers(0, n, k) if n else np.empty(0, dtype=np.int64)
            results.append((elems, rng.integers(0, P, k)))
    comm = draw(st.sampled_from(["alltoall", "neighborhood"]))
    return P, blocks, results, comm


def observe(machine, auditor, out, phase="sort"):
    """Everything the two implementations must agree on."""
    stats = machine.trace.get(phase)
    return (
        [
            [(name, b[name].dtype.str, b[name].shape, b[name].tobytes()) for name in b]
            for b in out
        ],
        machine.elapsed().hex(),
        stats.messages,
        stats.bytes,
        ledger_fingerprint(auditor),
    )


def run_both(P, blocks, results, comm, *, algos=None, read_only=False):
    observed = []
    for impl in (per_message_redistribute, fine_grained_redistribute):
        machine = Machine(P, profile=JUROPA)
        if algos is not None:
            machine.set_collective_algos(algos)
        auditor = enable_auditing(machine)
        with read_only_delivery() if read_only else contextlib.nullcontext():
            out = impl(machine, blocks, lambda r, b: results[r], "sort", comm=comm)
        auditor.assert_quiescent()
        observed.append(observe(machine, auditor, out))
    return observed


@given(cases())
@SETTINGS
@example(case=(1, [ColumnBlock(x=np.zeros(0))], [np.zeros(0, dtype=np.int64)], "alltoall"))
def test_flat_exchange_matches_per_message_oracle(case):
    oracle, flat = run_both(*case)
    assert flat == oracle


@pytest.mark.parametrize("algos", ["alltoallv=bruck", "alltoallv=pairwise"])
@given(case=cases())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_flat_exchange_matches_oracle_under_staged_engines(algos, case):
    oracle, flat = run_both(*case, algos=algos)
    assert flat == oracle


@given(case=cases())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_flat_exchange_matches_oracle_under_read_only_delivery(case):
    oracle, flat = run_both(*case, read_only=True)
    assert flat == oracle


def test_received_blocks_are_views_of_one_buffer():
    machine = Machine(4)
    blocks = [ColumnBlock(ident=np.arange(3 * r, 3 * r + 3)) for r in range(4)]
    out = fine_grained_redistribute(machine, blocks, lambda r, b: (b["ident"] + 1) % 4)
    base = out[0]["ident"].base
    assert base is not None
    assert all(b["ident"].base is base for b in out)
    # a fresh gather: the input arrays are never aliased
    assert not any(np.shares_memory(base, b["ident"]) for b in blocks)


BAD_RESULTS = {
    "target out of range": lambda r, b: np.full(b.n, 9),
    "negative target": lambda r, b: np.full(b.n, -1),
    "bad shape": lambda r, b: np.zeros(b.n + 1, dtype=np.int64),
    "unequal pairs": lambda r, b: (np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64)),
    "element out of range": lambda r, b: (np.array([b.n]), np.array([0])),
    "late rank": lambda r, b: np.full(b.n, 7 if r == 3 else 0),
}


@pytest.mark.parametrize("comm", ["alltoall", "neighborhood"])
@pytest.mark.parametrize("bad", sorted(BAD_RESULTS))
def test_error_paths_raise_the_oracle_error_without_charging(bad, comm):
    messages = []
    for impl in (per_message_redistribute, fine_grained_redistribute):
        machine = Machine(4)
        auditor = enable_auditing(machine)
        blocks = [ColumnBlock(ident=np.arange(2, dtype=np.int64)) for _ in range(4)]
        with pytest.raises(ValueError) as info:
            impl(machine, blocks, BAD_RESULTS[bad], "sort", comm=comm)
        messages.append(str(info.value))
        assert machine.elapsed() == 0.0
        assert machine.trace.get("sort").messages == 0
        assert auditor.ledger == {}
        assert auditor.n_alltoall_calls == 0
    assert messages[0] == messages[1]


def test_inconsistent_column_dtypes_rejected_before_charging():
    machine = Machine(2)
    blocks = [ColumnBlock(x=np.zeros(2)), ColumnBlock(x=np.zeros(2, dtype=np.float32))]
    with pytest.raises(ValueError, match="dtypes or shapes differ"):
        fine_grained_redistribute(machine, blocks, lambda r, b: np.zeros(b.n, dtype=np.int64))
    assert machine.elapsed() == 0.0
