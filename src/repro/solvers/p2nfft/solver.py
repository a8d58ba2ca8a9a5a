"""Parallel P2NFFT-style solver: Cartesian process-grid decomposition.

Execution of one ``fcs_run`` (Sect. II-C / III of the paper):

1. **sort** (the solver's particle data redistribution) — every particle is
   sent to the grid rank owning its position, carrying a packed 64-bit
   index value (source rank, source position); particles close to
   subdomain boundaries are *duplicated* to the neighboring ranks as ghost
   particles, all within one fine-grained data redistribution with a
   user-defined distribution function [13, 14].  When the application's
   maximum-movement bound limits the redistribution to direct grid
   neighbors, the all-to-all is replaced by neighborhood point-to-point
   communication (Sect. III-B).
2. **near** — linked-cell Ewald real-space sums of owned particles against
   owned + ghosts.
3. **mesh/fft** — the Fourier-space part on the global mesh; the data plane
   evaluates one global FFT while the cost model charges the distributed
   pencil-FFT compute and transpose communication.
4. method A: **restore** — potentials and fields return to the original
   order and distribution via the index values; or method B: ghosts are
   dropped, the redistributed particle data is returned in place, and
   resort indices are created by inverting the index values.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.core.fine_grained import fine_grained_redistribute
from repro.core.movement import p2nfft_prefers_neighborhood
from repro.core.particles import ColumnBlock, ParticleSet
from repro.core.resort import initial_numbering, invert_indices
from repro.core.restore import restore_results
from repro.simmpi.cart import CartGrid
from repro.simmpi.machine import Machine
from repro.solvers.base import RunReport, Solver
from repro.solvers.p2nfft.linked_cell import LinkedCellNearField
from repro.solvers.p2nfft.mesh import MeshSolver
from repro.solvers.p2nfft.tuning import (
    optimize_cutoff,
    suggest_cutoff,
    tune_ewald_splitting,
)
from repro.sorting import sorted_unique

__all__ = [
    "P2NFFTSolver", "ghost_distribution", "redistribute_with_ghosts", "charge_parallel_fft"
]


def _near_rank_task(near, tpos, spos, sq):
    """One rank's near-field evaluation, as an execution-backend task.

    Top-level so worker processes can import it by dotted path; ``near``
    (the shared :class:`LinkedCellNearField` geometry) ships once per
    fan-out.  Pure and deterministic — backend results are bitwise those of
    calling ``near.compute`` inline.
    """
    return near.compute(tpos, spos, sq)


def ghost_distribution(
    grid: CartGrid,
    pos: np.ndarray,
    rc: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """(element, target) pairs: owner plus ghost duplicates within ``rc``.

    The distribution function of the generalized fine-grained
    redistribution: each particle goes to the rank owning its position, and
    copies go to every rank whose subdomain lies within the cutoff radius
    (the ghost-creation rule of Sect. II-C).  Duplicate (element, target)
    pairs arising from periodic wrap-around on small grids are removed.
    """
    n = pos.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    box = grid.box
    wrapped = grid.offset + np.mod(pos - grid.offset, box)
    cells = grid.cell_of_positions(wrapped)
    owner = grid.rank_of(cells)
    elems = [np.arange(n, dtype=np.int64)]
    targets = [owner]
    rel = wrapped - grid.offset - cells * grid.cell  # in [0, cell)
    ring = np.maximum(np.ceil(rc / grid.cell).astype(np.int64), 1)
    ranges = [range(-int(r), int(r) + 1) for r in ring]
    for o in itertools.product(*ranges):
        if o == (0, 0, 0):
            continue
        d2 = np.zeros(n)
        for k in range(3):
            if o[k] > 0:
                dk = (o[k] - 1) * grid.cell[k] + (grid.cell[k] - rel[:, k])
            elif o[k] < 0:
                dk = (-o[k] - 1) * grid.cell[k] + rel[:, k]
            else:
                continue
            d2 += dk * dk
        within = d2 < rc * rc
        if not within.any():
            continue
        nbr = grid.rank_of(cells[within] + np.asarray(o, dtype=np.int64))
        keep = nbr != owner[within]
        elems.append(np.flatnonzero(within)[keep])
        targets.append(nbr[keep])
    # dedup on a packed 1-D key, sorted by (element, target)
    packed = np.concatenate(elems) * np.int64(grid.nprocs) + np.concatenate(targets)
    return np.divmod(sorted_unique(packed), np.int64(grid.nprocs))


def redistribute_with_ghosts(
    machine: Machine,
    grid: CartGrid,
    blocks: List[ColumnBlock],
    rc: float,
    comm: str,
) -> Tuple[List[ColumnBlock], List[ColumnBlock]]:
    """The sort phase: send every particle to its owner plus ghost copies.

    One vectorised :func:`ghost_distribution` over all ranks (the per-rank
    distribution function just slices its pairs), one fine-grained
    redistribution, and one :meth:`CartGrid.rank_of_positions` over all
    received rows.  Returns per rank the owned rows and owned + ghost rows.
    """
    P = machine.nprocs
    rank_offsets = np.concatenate(([0], np.cumsum([b.n for b in blocks])))
    g_elems, g_targets = ghost_distribution(
        grid, np.concatenate([b["pos"] for b in blocks]), rc
    )
    split_at = np.searchsorted(g_elems, rank_offsets).tolist()
    per_rank_pairs = [
        (g_elems[a:b] - rank_offsets[r], g_targets[a:b])
        for r, (a, b) in enumerate(zip(split_at[:-1], split_at[1:]))
    ]
    del g_elems, g_targets
    received = fine_grained_redistribute(
        machine, blocks, lambda r, b: per_rank_pairs[r], phase="sort", comm=comm
    )
    del per_rank_pairs

    recv_counts = [b.n for b in received]
    home = np.repeat(np.arange(P, dtype=np.min_scalar_type(P - 1)), recv_counts)
    own = grid.rank_of_positions(np.concatenate([b["pos"] for b in received])) == home
    bounds = np.concatenate(([0], np.cumsum(recv_counts))).tolist()
    owned = [
        received[r].take(np.flatnonzero(own[bounds[r]:bounds[r + 1]])) for r in range(P)
    ]
    return owned, received


def charge_parallel_fft(machine: Machine, M: int, n_transforms: int, phase: str) -> None:
    """Charge the cost of ``n_transforms`` distributed pencil FFTs.

    Per transform: the local butterfly work of ``M^3 log2(M^3) / P`` points
    plus two transpose all-to-alls exchanging the rank's full mesh share
    among ``~sqrt(P)`` pencil peers.
    """
    P = machine.nprocs
    model = machine.model
    points = float(M) ** 3
    stages = 3.0 * math.log2(max(M, 2))
    compute = kernels.FFT_POINT_STAGE * points * stages / P * n_transforms
    machine.compute(np.full(P, compute), phase=phase)
    peers = max(1, int(math.isqrt(P)) - 1)
    bytes_per_rank = 16.0 * points / P
    machine.synchronize()
    # transposes are *structured* all-to-alls (balanced, schedule known):
    # no incast-contention term, unlike the irregular redistribution traffic
    per_rank = (
        model.overhead * peers
        + model.latency
        + model.hop_latency * machine.topology.diameter() / 2.0
        + bytes_per_rank / model.bandwidth
    )
    bis = model.bisection_time(bytes_per_rank * P, machine.topology.bisection_links())
    per_round = max(per_rank, bis)
    machine.advance(
        np.full(P, per_round * 2.0 * n_transforms),
        phase,
        messages=2 * n_transforms * peers * P,
        nbytes=int(2 * n_transforms * bytes_per_rank * P),
    )


class P2NFFTSolver(Solver):
    """Ewald-splitting particle-mesh solver on a Cartesian process grid."""

    name = "p2nfft"

    def __init__(
        self,
        machine: Machine,
        cutoff: Optional[float] = None,
        alpha: Optional[float] = None,
        mesh_size: Optional[int] = None,
        compute: str = "full",
    ) -> None:
        super().__init__(machine)
        if compute not in ("full", "skip"):
            raise ValueError(f"compute must be 'full' or 'skip', got {compute!r}")
        self._cutoff_override = cutoff
        self._alpha_override = alpha
        self._mesh_override = mesh_size
        #: ``"skip"`` omits the force arithmetic (results are zeros) while
        #: keeping every redistribution operation — including ghost
        #: creation — data-real, and charging solver compute from analytic
        #: workload estimates (DESIGN.md §5)
        self.compute_mode = compute
        self.rc: Optional[float] = None
        self.alpha: Optional[float] = None
        self.mesh: Optional[MeshSolver] = None
        self.near: Optional[LinkedCellNearField] = None
        self.grid: Optional[CartGrid] = None

    def set_common(self, *, box, offset=(0.0, 0.0, 0.0), periodic: bool = True) -> None:
        if not periodic:
            raise ValueError("the P2NFFT solver supports periodic systems only")
        super().set_common(box=box, offset=offset, periodic=periodic)

    # -- solver-specific setter functions (fcs_p2nfft_set_*) ----------------------

    def set_cutoff(self, rc: Optional[float]) -> None:
        """Fix the real-space cutoff radius (None = density-based default).

        The paper's benchmarks use a fixed cutoff of 4.8 for the silica
        system."""
        if rc is not None and rc <= 0:
            raise ValueError(f"cutoff must be positive, got {rc}")
        self._cutoff_override = rc
        self._tuned = False

    def set_alpha(self, alpha: Optional[float]) -> None:
        """Fix the Ewald splitting parameter (None = tuned from accuracy)."""
        if alpha is not None and alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self._alpha_override = alpha
        self._tuned = False

    def set_mesh_size(self, M: Optional[int]) -> None:
        """Fix the FFT mesh size per dimension (None = tuned)."""
        if M is not None and M < 4:
            raise ValueError(f"mesh size must be >= 4, got {M}")
        self._mesh_override = M
        self._tuned = False

    # -- tuning ------------------------------------------------------------------

    def tune(self, particles: ParticleSet, accuracy: float = 1e-3) -> None:
        """Choose splitting parameter and mesh size; build grid and cells."""
        self.require_common()
        n = particles.total()
        if self._cutoff_override is not None:
            self.rc = self._cutoff_override
        else:
            # model-driven: balance real-space pair work against mesh work
            try:
                self.rc = optimize_cutoff(self.box, n, accuracy)
            except ValueError:
                self.rc = suggest_cutoff(self.box, n)
        alpha, M = tune_ewald_splitting(self.box, self.rc, accuracy)
        if self._alpha_override is not None:
            alpha = float(self._alpha_override)
        if self._mesh_override is not None:
            M = int(self._mesh_override)
        self.alpha = alpha
        self.mesh_size = M
        if self.compute_mode == "full":
            self.mesh = MeshSolver(M, self.box, self.offset, alpha)
            self.near = LinkedCellNearField(self.box, self.offset, self.rc, alpha)
        self.grid = CartGrid(self.machine.nprocs, self.box, self.offset, periodic=True)
        self.machine.barrier(phase="tune")
        self.machine.compute(kernels.FFT_POINT_STAGE * float(M) ** 3, phase="tune")
        self._tuned = True

    # -- run --------------------------------------------------------------------------

    def run(
        self,
        particles: ParticleSet,
        *,
        resort: bool = False,
        max_move: Optional[float] = None,
    ) -> RunReport:
        self.require_common()
        if not self._tuned:
            raise RuntimeError("fcs_tune must run before fcs_run")
        machine = self.machine
        P = machine.nprocs
        old_counts = particles.counts()

        neighborhood = (
            max_move is not None and p2nfft_prefers_neighborhood(self.grid, max_move)
        )
        comm = "neighborhood" if neighborhood else "alltoall"
        strategy = f"grid+{comm}"

        # --- forward redistribution with ghost duplication (phase: sort) ----
        numbering = initial_numbering(old_counts)
        blocks: List[ColumnBlock] = []
        cost = np.zeros(P)
        for r in range(P):
            blocks.append(
                ColumnBlock(
                    pos=particles.pos[r].copy(),
                    q=particles.q[r].copy(),
                    index=numbering[r],
                )
            )
            cost[r] = kernels.KEY_GENERATION * old_counts[r]
        machine.compute(cost, phase="keygen")

        owned, local_all = redistribute_with_ghosts(machine, self.grid, blocks, self.rc, comm)
        new_counts = np.asarray([b.n for b in owned], dtype=np.int64)

        # --- real-space near field (phase: near) -------------------------------
        pots: List[np.ndarray] = []
        fields: List[np.ndarray] = []
        near_cost = np.zeros(P)
        bin_cost = np.zeros(P)
        pair_density = (
            float(sum(new_counts)) / float(np.prod(self.box))
            * (4.0 / 3.0) * np.pi * self.rc ** 3
        )
        backend = machine.backend
        if self.compute_mode != "skip" and backend is not None and backend.workers:
            # each rank's near field is an independent pure computation over
            # its owned + ghost particles — fan it out to the rank-owning
            # workers.  The task is deterministic, so results (and the pair
            # counts feeding the cost model) are bitwise those of the
            # sequential loop below.
            near_results = backend.rank_map(
                "repro.solvers.p2nfft.solver._near_rank_task",
                [
                    (owned[r]["pos"], local_all[r]["pos"], local_all[r]["q"])
                    for r in range(P)
                ],
                shared=self.near,
            )
        else:
            near_results = None
        for r in range(P):
            if self.compute_mode == "skip":
                pots.append(np.zeros(owned[r].n))
                fields.append(np.zeros((owned[r].n, 3)))
                near_cost[r] = kernels.ERFC_PAIR * owned[r].n * pair_density
            else:
                if near_results is not None:
                    pot_n, field_n, pairs = near_results[r]
                else:
                    pot_n, field_n, pairs = self.near.compute(
                        owned[r]["pos"], local_all[r]["pos"], local_all[r]["q"]
                    )
                pots.append(pot_n)
                fields.append(field_n)
                near_cost[r] = kernels.ERFC_PAIR * pairs
            bin_cost[r] = kernels.CELL_BINNING * local_all[r].n
        machine.compute(near_cost + bin_cost, phase="near")

        # --- Fourier-space far field (phases: mesh, fft) -------------------------
        if self.compute_mode == "full":
            gpos = np.concatenate([b["pos"] for b in owned])
            gq = np.concatenate([b["q"] for b in owned])
            pot_k, field_k = self.mesh.kspace(gpos, gq, gpos)
            total_charge = float(gq.sum())
            if abs(total_charge) > 1e-12:
                pot_k += self.mesh.background(total_charge)
        else:
            n_total = int(new_counts.sum())
            pot_k = np.zeros(n_total)
            field_k = np.zeros((n_total, 3))
        machine.compute(
            kernels.MESH_ASSIGNMENT * new_counts.astype(np.float64) * 5.0, phase="mesh"
        )
        # ghost mesh-layer exchange: one CIC layer of the local mesh surface
        local_mesh_pts = float(self.mesh_size) ** 3 / P
        surface = 6.0 * local_mesh_pts ** (2.0 / 3.0)
        machine.advance(
            np.full(P, machine.model.msg_time(1, surface * 8.0) * 6.0),
            phase="mesh",
            messages=6 * P,
            nbytes=int(surface * 8.0 * 6 * P),
        )
        charge_parallel_fft(machine, self.mesh_size, 5, phase="fft")

        offsets = np.concatenate(([0], np.cumsum(new_counts)))
        for r in range(P):
            sl = slice(offsets[r], offsets[r + 1])
            pots[r] = pots[r] + pot_k[sl]
            fields[r] = fields[r] + field_k[sl]

        # --- return path ------------------------------------------------------------
        if resort and particles.fits(new_counts):
            # drop ghosts, return the changed order and distribution
            for r in range(P):
                particles.replace(
                    r, owned[r]["pos"], owned[r]["q"], pots[r], fields[r]
                )
            resort_indices = invert_indices(
                machine,
                [b["index"] for b in owned],
                [int(c) for c in old_counts],
                phase="resort_index",
                comm=comm,
            )
            return RunReport(
                changed=True,
                resort_indices=resort_indices,
                old_counts=old_counts,
                new_counts=new_counts,
                strategy=strategy,
                comm=comm,
                rank_work=near_cost,
            )

        restore_results(
            machine,
            [b["index"] for b in owned],
            pots,
            fields,
            particles,
            [int(c) for c in old_counts],
            phase="restore",
        )
        return RunReport(
            changed=False,
            old_counts=old_counts,
            new_counts=old_counts,
            strategy=strategy,
            comm=comm,
            rank_work=near_cost,
        )
