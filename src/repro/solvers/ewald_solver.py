"""Parallel classical Ewald solver (the ScaFaCoS "ewald" method).

The O(N^1.5) baseline between the direct sum and the fast solvers:

* **real space** — exactly the P2NFFT's machinery: Cartesian process-grid
  decomposition, ghost particles within the cutoff, linked-cell
  ``erfc(alpha r)/r`` sums (it reuses those modules verbatim);
* **reciprocal space** — the k-vector list is split across the ranks; each
  rank computes the structure-factor contribution of its *local* particles
  for its *k-slice*... which requires one allreduce of the slice's
  structure factors (the classical parallel Ewald pattern), then evaluates
  its local particles against the full spectrum.

Because the real-space part uses the same redistribution (including method
B's resort indices and the neighborhood optimization), this solver is a
drop-in third method for every experiment in the repo — and a useful
accuracy cross-check at mid-size systems.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.core.movement import p2nfft_prefers_neighborhood
from repro.core.particles import ColumnBlock, ParticleSet
from repro.core.resort import initial_numbering, invert_indices
from repro.core.restore import restore_results
from repro.simmpi.cart import CartGrid
from repro.simmpi.collectives import allreduce
from repro.simmpi.machine import Machine
from repro.solvers.base import RunReport, Solver
from repro.solvers.p2nfft.linked_cell import LinkedCellNearField
from repro.solvers.p2nfft.solver import redistribute_with_ghosts
from repro.solvers.p2nfft.tuning import suggest_cutoff

__all__ = ["EwaldSolver"]

#: nominal cost of one particle against one k-vector (sin+cos+mults)
_KVEC_PARTICLE = 1.2e-8


class EwaldSolver(Solver):
    """Classical Ewald summation on the process grid."""

    name = "ewald"

    def __init__(
        self,
        machine: Machine,
        cutoff: Optional[float] = None,
        alpha: Optional[float] = None,
        kmax: Optional[int] = None,
        compute: str = "full",
    ) -> None:
        super().__init__(machine)
        if compute not in ("full", "skip"):
            raise ValueError(f"compute must be 'full' or 'skip', got {compute!r}")
        self._cutoff_override = cutoff
        self._alpha_override = alpha
        self._kmax_override = kmax
        self.compute_mode = compute
        self.rc: Optional[float] = None
        self.alpha: Optional[float] = None
        self.kmax: Optional[int] = None
        self.near: Optional[LinkedCellNearField] = None
        self.grid: Optional[CartGrid] = None
        self._kvecs: Optional[np.ndarray] = None
        self._green: Optional[np.ndarray] = None

    def set_common(self, *, box, offset=(0.0, 0.0, 0.0), periodic: bool = True) -> None:
        if not periodic:
            raise ValueError("the Ewald solver supports periodic systems only")
        super().set_common(box=box, offset=offset, periodic=periodic)

    # -- tuning ------------------------------------------------------------------

    def tune(self, particles: ParticleSet, accuracy: float = 1e-3) -> None:
        """Choose alpha/cutoff/kmax and build the k-vector list."""
        self.require_common()
        n = particles.total()
        self.rc = self._cutoff_override or suggest_cutoff(self.box, n)
        alpha = math.sqrt(max(-math.log(accuracy), 1.0)) / self.rc
        if self._alpha_override is not None:
            alpha = float(self._alpha_override)
        self.alpha = alpha
        if self._kmax_override is not None:
            self.kmax = int(self._kmax_override)
        else:
            m = alpha * float(self.box.max()) / math.pi * math.sqrt(
                max(-math.log(accuracy), 1.0)
            )
            self.kmax = max(2, int(math.ceil(m)))
        if self.compute_mode == "full":
            self.near = LinkedCellNearField(self.box, self.offset, self.rc, alpha)
            self._build_kvectors()
        self.grid = CartGrid(self.machine.nprocs, self.box, self.offset, periodic=True)
        self.machine.barrier(phase="tune")
        self._tuned = True

    def _build_kvectors(self) -> None:
        kmax = self.kmax
        ms = np.arange(-kmax, kmax + 1)
        mx, my, mz = np.meshgrid(ms, ms, ms, indexing="ij")
        mv = np.stack([mx.ravel(), my.ravel(), mz.ravel()], axis=1)
        mv = mv[np.any(mv != 0, axis=1)]
        kv = 2.0 * math.pi * mv / self.box[None, :]
        k2 = (kv * kv).sum(axis=1)
        volume = float(np.prod(self.box))
        green = 4.0 * math.pi / volume * np.exp(-k2 / (4.0 * self.alpha ** 2)) / k2
        self._kvecs = kv
        self._green = green

    # -- run -----------------------------------------------------------------------

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

        # --- forward redistribution with ghosts (same as P2NFFT) -------------
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

        # --- real space ---------------------------------------------------------
        pots, fields = self._real_space(owned, local_all, new_counts)

        # --- reciprocal space ------------------------------------------------------
        self._k_space(owned, pots, fields, new_counts)

        # --- return path ------------------------------------------------------------
        if resort and particles.fits(new_counts):
            for r in range(P):
                particles.replace(r, owned[r]["pos"], owned[r]["q"], pots[r], fields[r])
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
        )

    # -- pieces --------------------------------------------------------------------

    def _real_space(self, owned, local_all, new_counts) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        machine = self.machine
        P = machine.nprocs
        pots: List[np.ndarray] = []
        fields: List[np.ndarray] = []
        near_cost = np.zeros(P)
        density = float(new_counts.sum()) / float(np.prod(self.box))
        pair_density = density * (4.0 / 3.0) * math.pi * self.rc ** 3
        for r in range(P):
            if self.compute_mode == "skip":
                pots.append(np.zeros(owned[r].n))
                fields.append(np.zeros((owned[r].n, 3)))
                near_cost[r] = kernels.ERFC_PAIR * owned[r].n * pair_density
                continue
            pot_n, field_n, npairs = self.near.compute(
                owned[r]["pos"], local_all[r]["pos"], local_all[r]["q"]
            )
            pots.append(pot_n)
            fields.append(field_n)
            near_cost[r] = kernels.ERFC_PAIR * npairs
        machine.compute(near_cost, phase="near")
        return pots, fields

    def _k_space(self, owned, pots, fields, new_counts) -> None:
        """Rank-split k-space sums with one structure-factor allreduce."""
        machine = self.machine
        P = machine.nprocs
        if self.compute_mode == "full":
            kv, green = self._kvecs, self._green
            nk = kv.shape[0]
            # data plane: global structure factor, then local evaluations
            gpos = np.concatenate([b["pos"] for b in owned])
            gq = np.concatenate([b["q"] for b in owned])
            pot_k = np.zeros(gpos.shape[0])
            field_k = np.zeros_like(gpos)
            for start in range(0, nk, 2048):
                kvc = kv[start:start + 2048]
                gc = green[start:start + 2048]
                phase_arg = gpos @ kvc.T
                c, s = np.cos(phase_arg), np.sin(phase_arg)
                sc = gq @ c
                ss = gq @ s
                pot_k += c @ (gc * sc) + s @ (gc * ss)
                field_k += (s * (gc * sc)[None, :] - c * (gc * ss)[None, :]) @ kvc
            pot_k -= 2.0 * self.alpha / math.sqrt(math.pi) * gq
            offsets = np.concatenate(([0], np.cumsum(new_counts)))
            for r in range(P):
                sl = slice(offsets[r], offsets[r + 1])
                pots[r] = pots[r] + pot_k[sl]
                fields[r] = fields[r] + field_k[sl]
            nk_total = nk
        else:
            nk_total = (2 * self.kmax + 1) ** 3 - 1
        # cost plane: each rank computes n_local x (nk/P) phases twice
        # (structure factor + evaluation) and one allreduce of the partial
        # structure factors (2 floats per k-vector)
        per_rank = (
            2.0 * _KVEC_PARTICLE * new_counts.astype(np.float64) * (nk_total / P)
        )
        machine.compute(per_rank, phase="far")
        allreduce(
            machine,
            [np.zeros(2)] * P,  # stand-in; volume charged via tree model below
            op="sum",
            phase="far",
        )
        machine.advance(
            machine.model.tree_collective_time(
                P, 16.0 * nk_total / max(P, 1), machine.topology.diameter()
            ),
            "far",
            messages=2 * max(0, P - 1),
        )
