"""Differential suite of the rank-batched FMM data plane against its oracles.

The three functions below are the per-pair, per-window and per-rank bodies
the FMM's method-B data plane used before it became rank-batched; they are
kept here only as oracles:

* :func:`per_pair_exchange_pairs` charges a comparator round pair by pair
  with scalar arithmetic (one ``Topology.hops`` call per pair);
* :func:`per_window_merge_exchange_sort` runs Batcher's merge-exchange on
  per-rank blocks, one ``take``/``concat`` set per overlapping window;
* :func:`per_rank_halo_exchange` computes each rank's halo targets with 26
  key encodings and owner lookups per rank and a row-wise ``np.unique``.

For random cases the flat paths must match them in output rows and order,
``machine.elapsed()`` (as float hex), per-phase trace messages and bytes and
the auditor ledger fingerprint — on switch, fat-tree and torus topologies,
with and without a chaos perturbation, and under read-only delivery.
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.fine_grained import fine_grained_redistribute
from repro.core.particles import ColumnBlock
from repro.simmpi import Machine, p2p
from repro.simmpi.chaos import Perturbation
from repro.simmpi.collectives import payload_nbytes
from repro.simmpi.p2p import exchange_pairs, send_round
from repro.simmpi.topology import FatTreeTopology, SwitchTopology, TorusTopology
from repro.solvers.fmm.solver import FMMSolver
from repro.solvers.fmm.tree import FMMTree
from repro.sorting.batcher import merge_exchange_rounds
from repro.sorting.merge_sort import _verify_sorted, local_sort, merge_exchange_sort
from repro.verify.audit import enable_auditing
from repro.verify.dst import ledger_fingerprint
from repro.zorder.morton import morton_decode3, morton_encode3

from .test_aliasing import read_only_delivery

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ------------------------------------------------------------------ oracles


def per_pair_exchange_pairs(machine, exchanges, phase=None):
    """The oracle: validate and charge one pair at a time."""
    model = machine.model
    if machine.auditor is not None:
        machine.auditor.observe_exchange_pairs(exchanges, phase)
    seen = set()
    before = machine.clocks.max()
    out = {}
    n_messages = 0
    total_bytes = 0
    delivered = p2p._route(
        machine,
        [m for a, b, pa, pb in exchanges for m in ((a, b, pa), (b, a, pb))],
    )
    for i, (a, b, pa, pb) in enumerate(exchanges):
        a = machine.check_rank(a)
        b = machine.check_rank(b)
        if a == b:
            raise ValueError(f"pair ({a}, {b}) exchanges with itself")
        for r in (a, b):
            if r in seen:
                raise ValueError(f"rank {r} appears in more than one exchange")
            seen.add(r)
        bytes_ab = payload_nbytes(pa)
        bytes_ba = payload_nbytes(pb)
        hops = int(machine.topology.hops(a, b))
        post_a = machine.clocks[a] + model.overhead + float(model.copy_time(bytes_ab))
        post_b = machine.clocks[b] + model.overhead + float(model.copy_time(bytes_ba))
        pair_factor = machine.comm_factor(a, b)
        arrive_at_b = post_a + float(model.msg_time(hops, bytes_ab)) * pair_factor - model.overhead
        arrive_at_a = post_b + float(model.msg_time(hops, bytes_ba)) * pair_factor - model.overhead
        machine.clocks[a] = max(post_a, arrive_at_a) + float(model.copy_time(bytes_ba))
        machine.clocks[b] = max(post_b, arrive_at_b) + float(model.copy_time(bytes_ab))
        out[(a, b)] = (delivered[2 * i + 1], delivered[2 * i])
        n_messages += 2
        total_bytes += bytes_ab + bytes_ba
    t = float(machine.clocks.max() - before)
    machine.trace.record(phase, time=t, messages=n_messages, nbytes=total_bytes)
    return out


def _control_payload(block, key):
    keys = block[key]
    if keys.shape[0] == 0:
        return np.zeros(3, dtype=np.uint64)
    return np.asarray([keys.shape[0], keys[0], keys[-1]], dtype=np.uint64)


def per_window_merge_exchange_sort(
    machine, blocks, key, phase=None, *, presorted=False, verify=True
):
    """The oracle: per-rank blocks, one take/concat set per window."""
    if len(blocks) != machine.nprocs:
        raise ValueError(f"{len(blocks)} blocks for {machine.nprocs} ranks")
    current = list(blocks) if presorted else local_sort(machine, blocks, key, phase)
    P = machine.nprocs
    if P == 1:
        return current, True
    for round_pairs in merge_exchange_rounds(P):
        controls = per_pair_exchange_pairs(
            machine,
            [
                (a, b, _control_payload(current[a], key), _control_payload(current[b], key))
                for a, b in round_pairs
            ],
            phase,
        )
        windows = []
        for a, b in round_pairs:
            ctrl_b, ctrl_a = controls[(a, b)]
            count_a, _min_a, max_a = int(ctrl_a[0]), ctrl_a[1], ctrl_a[2]
            count_b, min_b, _max_b = int(ctrl_b[0]), ctrl_b[1], ctrl_b[2]
            if count_a == 0 or count_b == 0:
                continue
            if max_a <= min_b:
                continue
            keys_a = current[a][key]
            keys_b = current[b][key]
            na_win = count_a - int(np.searchsorted(keys_a, min_b, side="left"))
            nb_win = int(np.searchsorted(keys_b, max_a, side="right"))
            wa = current[a].take(np.arange(count_a - na_win, count_a))
            wb = current[b].take(np.arange(nb_win))
            windows.append((a, b, wa, wb, na_win, nb_win))
        if not windows:
            continue
        per_pair_exchange_pairs(
            machine,
            [(a, b, wa.payload(), wb.payload()) for a, b, wa, wb, _, _ in windows],
            phase,
        )
        merge_cost = np.zeros(P, dtype=np.float64)
        for a, b, wa, wb, na_win, nb_win in windows:
            combined = ColumnBlock.concat([wa, wb])
            order = np.argsort(combined[key], kind="stable")
            low = combined.take(order[:na_win])
            high = combined.take(order[na_win:])
            n_keep_a = current[a].n - na_win
            current[a] = ColumnBlock.concat([current[a].take(np.arange(n_keep_a)), low])
            current[b] = ColumnBlock.concat(
                [high, current[b].take(np.arange(nb_win, current[b].n))]
            )
            w = combined.n
            if w > 1:
                merge_cost[a] += kernels.SORT_STEP * w * np.log2(w)
                merge_cost[b] += kernels.SORT_STEP * w * np.log2(w)
        machine.compute(merge_cost, phase)
    if not verify:
        return current, True
    return current, _verify_sorted(machine, current, key, phase)


def per_rank_halo_exchange(solver, blocks, ownership):
    """The oracle: 26 encodings and owner lookups per rank, row-wise unique."""
    rank_ids, min_keys, max_keys = ownership
    nside = solver.tree.nside_leaf
    send_elems = []
    send_targets = []
    for r, block in enumerate(blocks):
        if block.n == 0:
            send_elems.append(np.empty(0, dtype=np.int64))
            send_targets.append(np.empty(0, dtype=np.int64))
            continue
        keys = block["key"]
        boxes, first = np.unique(keys, return_index=True)
        last = np.concatenate((first[1:], [keys.shape[0]]))
        bx, by, bz = (c.astype(np.int64) for c in morton_decode3(boxes))
        dest_box = []
        dest_rank = []
        for d in itertools.product((-1, 0, 1), repeat=3):
            if d == (0, 0, 0):
                continue
            nx, ny, nz = bx + d[0], by + d[1], bz + d[2]
            if solver.periodic:
                nx, ny, nz = nx % nside, ny % nside, nz % nside
                mask = np.ones(boxes.shape[0], dtype=bool)
            else:
                mask = (
                    (nx >= 0) & (nx < nside)
                    & (ny >= 0) & (ny < nside)
                    & (nz >= 0) & (nz < nside)
                )
                if not mask.any():
                    continue
                nx, ny, nz = nx[mask], ny[mask], nz[mask]
            nkeys = morton_encode3(nx, ny, nz)
            ki, owners = solver._owners_of_keys(nkeys, rank_ids, min_keys, max_keys)
            box_idx = np.flatnonzero(mask)[ki]
            keep = owners != r
            dest_box.append(box_idx[keep])
            dest_rank.append(owners[keep])
        if dest_box:
            db = np.concatenate(dest_box)
            dr = np.concatenate(dest_rank)
            pairs = np.unique(np.stack([db, dr], axis=1), axis=0)
            db, dr = pairs[:, 0], pairs[:, 1]
            seg_len = (last - first)[db]
            elems = np.concatenate(
                [np.arange(first[b], last[b]) for b in db]
            ) if db.size else np.empty(0, dtype=np.int64)
            targets = np.repeat(dr, seg_len)
        else:
            elems = np.empty(0, dtype=np.int64)
            targets = np.empty(0, dtype=np.int64)
        send_elems.append(elems)
        send_targets.append(targets)
    halo_in = [b.drop("origloc") for b in blocks]
    return fine_grained_redistribute(
        solver.machine,
        halo_in,
        lambda rank, block: (send_elems[rank], send_targets[rank]),
        phase="halo",
        comm="neighborhood",
    )


# ------------------------------------------------------------------ machines

TOPOLOGIES = ("switch", "fat-tree", "torus")


def make_machine(P, topology, perturbed):
    if topology == "switch":
        topo = SwitchTopology(P, node_size=2)
    elif topology == "fat-tree":
        topo = FatTreeTopology(P, node_size=2, radix=2)
    else:
        topo = TorusTopology(P, node_size=1)
    perturbation = None
    if perturbed:
        # per-rank comm factors (degraded links) plus a degraded global model
        perturbation = Perturbation(
            seed=7,
            degraded_link_fraction=0.5,
            degraded_link_slowdown=3.0,
            bandwidth_degradation=0.3,
            extra_latency=2e-6,
            clock_skew=1e-5,
            compute_jitter=0.2,
        )
    return Machine(P, topology=topo, perturbation=perturbation)


def observe(machine, auditor, out, phases):
    """Everything the two implementations must agree on."""
    return (
        out,
        machine.elapsed().hex(),
        machine.clocks.tobytes(),
        [(machine.trace.get(p).messages, machine.trace.get(p).bytes) for p in phases],
        ledger_fingerprint(auditor),
    )


def block_rows(blocks):
    return [
        [(name, b[name].dtype.str, b[name].shape, b[name].tobytes()) for name in b]
        for b in blocks
    ]


# ------------------------------------------------------------ exchange_pairs


@st.composite
def pair_rounds(draw):
    """(P, topology, perturbed, rounds of disjoint (a, b, bytes, bytes))."""
    P = draw(st.integers(min_value=2, max_value=12))
    topology = draw(st.sampled_from(TOPOLOGIES))
    perturbed = draw(st.booleans())
    rounds = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        ranks = draw(st.permutations(range(P)))
        npairs = draw(st.integers(min_value=0, max_value=P // 2))
        sizes = draw(st.lists(st.integers(0, 300), min_size=2 * npairs, max_size=2 * npairs))
        rounds.append(
            [
                (ranks[2 * i], ranks[2 * i + 1], sizes[2 * i], sizes[2 * i + 1])
                for i in range(npairs)
            ]
        )
    return P, topology, perturbed, rounds


def run_pairs(impl, P, topology, perturbed, rounds, read_only=False):
    machine = make_machine(P, topology, perturbed)
    auditor = enable_auditing(machine)
    received = []
    for i, pairs in enumerate(rounds):
        exchanges = [
            (a, b, np.full(na, a, dtype=np.uint8), (np.arange(nb, dtype=np.int16), np.zeros(1)))
            for a, b, na, nb in pairs
        ]
        with read_only_delivery() if read_only else contextlib.nullcontext():
            out = impl(machine, exchanges, f"r{i % 2}")
        received.append(
            [
                (key, payload_nbytes(at_a), payload_nbytes(at_b))
                for key, (at_a, at_b) in out.items()
            ]
        )
    auditor.assert_quiescent()
    return observe(machine, auditor, received, ["r0", "r1"])


@given(pair_rounds())
@SETTINGS
def test_exchange_pairs_matches_per_pair_oracle(case):
    assert run_pairs(exchange_pairs, *case) == run_pairs(per_pair_exchange_pairs, *case)


@given(case=pair_rounds())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_exchange_pairs_matches_oracle_under_read_only_delivery(case):
    flat = run_pairs(exchange_pairs, *case, read_only=True)
    assert flat == run_pairs(per_pair_exchange_pairs, *case, read_only=True)


BAD_ROUNDS = {
    "shared rank": [(0, 1), (1, 2)],
    "self pair": [(0, 1), (2, 2)],
    "rank out of range": [(0, 1), (2, 7)],
    "negative rank": [(0, 1), (-1, 2)],
}


@pytest.mark.parametrize("bad", sorted(BAD_ROUNDS))
def test_rejected_round_leaves_clocks_trace_and_ledger_untouched(bad):
    x = np.zeros(1)
    exchanges = [(a, b, x, x) for a, b in BAD_ROUNDS[bad]]
    with pytest.raises(ValueError) as oracle:
        per_pair_exchange_pairs(Machine(4), exchanges, "x")
    machine = Machine(4)
    auditor = enable_auditing(machine)
    # the oracle's message, but raised before the auditor or any charge
    with pytest.raises(ValueError) as info:
        exchange_pairs(machine, exchanges, "x")
    assert str(info.value) == str(oracle.value)
    assert not machine.clocks.any()
    assert machine.trace.get("x").messages == 0
    assert auditor.n_p2p_calls == 0
    assert auditor.ledger == {}


def test_rejected_send_round_leaves_clocks_untouched():
    machine = Machine(4)
    auditor = enable_auditing(machine)
    x = np.zeros(1)
    with pytest.raises(ValueError, match="rank 7 out of range"):
        send_round(machine, [(0, 1, x), (2, 7, x)], "x")
    assert not machine.clocks.any()
    assert machine.trace.get("x").messages == 0
    assert auditor.n_p2p_calls == 0


# -------------------------------------------------------- merge_exchange_sort

#: (name, dtype, trailing shape) of the payload columns a case may carry
COLUMNS = (
    ("pos", np.float64, (3,)),
    ("flag", np.int32, ()),
    ("vec", np.float32, (2,)),
    ("mask", np.uint8, (4,)),
)


@st.composite
def sort_cases(draw):
    """(P, topology, perturbed, blocks, presorted, verify)."""
    P = draw(st.integers(min_value=1, max_value=9))
    topology = draw(st.sampled_from(TOPOLOGIES))
    perturbed = draw(st.booleans())
    key_dtype = draw(st.sampled_from([np.uint64, np.int64]))
    extra = draw(st.lists(st.sampled_from(range(len(COLUMNS))), max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # few distinct keys force stable ties; a narrow drift makes runs overlap
    # only near rank boundaries (the almost-sorted method-B case)
    span = draw(st.sampled_from([4, 50, 10**6]))
    almost_sorted = draw(st.booleans())
    presorted = draw(st.booleans())
    blocks = []
    base = 0
    for _rank in range(P):
        n = draw(st.integers(min_value=0, max_value=12))
        if almost_sorted:
            keys = base + rng.integers(-span // 4 - 1, span, n)
            base += span // 2
        else:
            keys = rng.integers(0, span, n)
        # negative int64 keys wrap in the uint64 control messages alike
        keys = (np.abs(keys) if key_dtype is np.uint64 else keys).astype(key_dtype)
        if presorted:
            keys = np.sort(keys)
        cols = {"key": keys, "ident": rng.permutation(n).astype(np.int64)}
        for i in extra:
            name, dtype, shape = COLUMNS[i]
            cols[name] = (rng.standard_normal((n,) + shape) * 100).astype(dtype)
        blocks.append(ColumnBlock(**cols))
    return P, topology, perturbed, blocks, presorted, draw(st.booleans())


def run_sort(impl, P, topology, perturbed, blocks, presorted, verify, read_only=False):
    machine = make_machine(P, topology, perturbed)
    auditor = enable_auditing(machine)
    with read_only_delivery() if read_only else contextlib.nullcontext():
        out, ok = impl(machine, blocks, "key", "sort", presorted=presorted, verify=verify)
    auditor.assert_quiescent()
    return observe(machine, auditor, (block_rows(out), ok), ["sort"])


@given(sort_cases())
@SETTINGS
@example(case=(1, "switch", False, [ColumnBlock(key=np.zeros(0, np.uint64))], False, True))
@example(
    case=(
        3,
        "torus",
        True,
        [ColumnBlock(key=np.zeros(0, np.uint64), x=np.zeros((0, 2)))] * 3,
        True,
        True,
    )
)
def test_merge_exchange_sort_matches_per_window_oracle(case):
    oracle = run_sort(per_window_merge_exchange_sort, *case)
    assert run_sort(merge_exchange_sort, *case) == oracle


@given(case=sort_cases())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_merge_exchange_sort_matches_oracle_under_read_only_delivery(case):
    oracle = run_sort(per_window_merge_exchange_sort, *case, read_only=True)
    assert run_sort(merge_exchange_sort, *case, read_only=True) == oracle


def test_sorted_blocks_are_views_of_one_fresh_buffer():
    machine = Machine(4)
    blocks = [
        ColumnBlock(key=np.arange(8, dtype=np.uint64)[::-1] + r, ident=np.arange(8))
        for r in range(4)
    ]
    out, ok = merge_exchange_sort(machine, blocks, "key", "sort")
    base = out[0]["key"].base
    assert base is not None
    assert all(b["key"].base is base for b in out)
    assert not any(np.shares_memory(base, b["key"]) for b in blocks)


@pytest.mark.parametrize(
    "blocks, message",
    [
        (
            [ColumnBlock(key=np.ones(2, np.uint64), x=np.zeros(2)),
             ColumnBlock(key=np.zeros(2, np.uint64), y=np.zeros(2))],
            "column mismatch",
        ),
        (
            [ColumnBlock(key=np.ones(2, np.uint64), x=np.zeros(2)),
             ColumnBlock(key=np.zeros(2, np.uint64), x=np.zeros(2, np.float32))],
            "dtypes or shapes differ",
        ),
        (
            [ColumnBlock(key=np.ones(2, np.uint64), x=np.zeros((2, 3))),
             ColumnBlock(key=np.zeros(2, np.uint64), x=np.zeros((2, 2)))],
            "dtypes or shapes differ",
        ),
    ],
    ids=["names", "dtype", "trailing shape"],
)
def test_mismatched_columns_rejected_before_charging(blocks, message):
    machine = Machine(2)
    auditor = enable_auditing(machine)
    with pytest.raises(ValueError, match=message):
        merge_exchange_sort(machine, blocks, "key", "sort")
    assert machine.elapsed() == 0.0
    assert machine.trace.get("sort").messages == 0
    assert auditor.n_p2p_calls == 0


def test_empty_rank_dtype_does_not_travel():
    """An empty rank's column dtypes never reach the buffer."""
    machine = Machine(3)
    blocks = [
        ColumnBlock(key=np.array([5, 1], np.uint64), x=np.zeros(2, np.float32)),
        ColumnBlock(key=np.zeros(0, np.uint64), x=np.zeros(0)),
        ColumnBlock(key=np.array([0, 3], np.uint64), x=np.ones(2, np.float32)),
    ]
    out, ok = merge_exchange_sort(machine, blocks, "key", "sort")
    assert ok
    assert [b["x"].dtype for b in out] == [np.float32] * 3
    np.testing.assert_array_equal(np.concatenate([b["key"] for b in out]), [0, 1, 3, 5])


# ------------------------------------------------------------ halo exchange


@st.composite
def halo_cases(draw):
    """(P, periodic, depth, per-rank counts, seed) of a Morton-sorted state."""
    P = draw(st.integers(min_value=1, max_value=7))
    periodic = draw(st.booleans())
    # the tree's minimum depths: 2 for open boundaries, 3 for periodic ones
    depth = draw(st.integers(min_value=3 if periodic else 2, max_value=3))
    # zero counts give empty ranks; many particles per box make boxes
    # straddle rank boundaries
    counts = draw(st.lists(st.integers(0, 40), min_size=P, max_size=P))
    return P, periodic, depth, counts, draw(st.integers(0, 2**32 - 1))


def run_halo(impl, P, periodic, depth, counts, seed):
    machine = Machine(P, topology=FatTreeTopology(P, node_size=2, radix=2))
    auditor = enable_auditing(machine)
    box = np.array([4.0, 5.0, 6.0])
    solver = FMMSolver(machine, order=3, depth=depth, compute="skip")
    solver.set_common(box=box, periodic=periodic)
    solver.tree = FMMTree(
        depth=depth, p=3, box=box, offset=np.zeros(3), periodic=periodic,
        lattice_shells=1, build_operators=False,
    )
    rng = np.random.default_rng(seed)
    n = sum(counts)
    # open boundaries clamp stray positions into the edge boxes
    pos = rng.uniform(-0.5, 1.5 if not periodic else 1.0, (n, 3)) * box
    keys = solver.tree.morton_keys(pos)
    order = np.argsort(keys, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(counts)))
    blocks = [
        ColumnBlock(
            key=keys[order[lo:hi]],
            pos=pos[order[lo:hi]],
            q=rng.standard_normal(hi - lo),
            origloc=np.arange(lo, hi, dtype=np.int64),
        )
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    ownership = solver._ownership(blocks)
    out = impl(solver, blocks, ownership)
    auditor.assert_quiescent()
    return observe(machine, auditor, block_rows(out), ["halo"])


@given(halo_cases())
@SETTINGS
@example(case=(3, False, 2, [0, 0, 0], 0))
@example(case=(4, True, 3, [30, 0, 1, 29], 5))
def test_halo_exchange_matches_per_rank_oracle(case):
    flat = run_halo(lambda solver, blocks, own: solver._halo_exchange(blocks, own), *case)
    assert flat == run_halo(per_rank_halo_exchange, *case)
