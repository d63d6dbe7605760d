"""Force field: Lennard-Jones + screened Coulomb + harmonic bonds.

A deliberately compact but real force field:

* **Pair forces** act on the neighbor-list pairs: truncated-and-shifted
  Lennard-Jones with per-type-pair (epsilon, sigma) from
  Lorentz–Berthelot mixing, plus a Yukawa-screened Coulomb term
  ``q_i q_j exp(-kappa r) / r`` (short-ranged, so no Ewald machinery is
  needed — the paper's controllers never depend on electrostatics
  accuracy, only on the force loop being a genuine compute-bound
  kernel).
* **Bond forces**: harmonic O–H bonds inside water molecules.

Everything is vectorized over the pair list; the returned
:class:`ForceResult` carries the potential energy and the pair count,
which the workload calibration uses as the operation-count anchor.

**Exclusion contract.** Two atoms with the same ``molecule_ids`` entry
never interact through the pair term (their intramolecular forces are
the bonds). A monoatomic particle must therefore carry an id of its
own: ions sharing an id would silently lose every ion–ion pair.

**Per-list pair table.** A listed pair's exclusion and parameters are
fixed for the neighbor list's lifetime (~20 steps), so the first force
call on a list drops intramolecular pairs (order kept) and stores one
type-pair code per pair, selecting from 16-entry per-type-pair tables.
A step then only does the position-dependent work. Every float
expression keeps the operand order of the direct per-pair formulation,
so results are bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.neighbor import NeighborList
from repro.md.system import CHARGES, ParticleSystem, Species
from repro.util.scatter import scatter_add_pairs

__all__ = ["ForceField", "ForceResult"]


def _lorentz_berthelot(eps: np.ndarray, sig: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eps_pair = np.sqrt(eps[:, None] * eps[None, :])
    sig_pair = 0.5 * (sig[:, None] + sig[None, :])
    return eps_pair, sig_pair


@dataclass
class ForceResult:
    forces: np.ndarray  # (n, 3)
    potential_energy: float
    pair_count: int
    bond_count: int


class ForceField:
    """Parameters and evaluation of the water/ion force field."""

    def __init__(
        self,
        cutoff: float = 2.5,
        kappa: float = 2.0,
        coulomb_strength: float = 0.5,
        bond_k: float = 400.0,
        bond_r0: float = 0.32,
    ) -> None:
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        self.cutoff = cutoff
        self.kappa = kappa
        self.coulomb_strength = coulomb_strength
        self.bond_k = bond_k
        self.bond_r0 = bond_r0
        # per-species LJ parameters: O, H, CAT, AN
        eps = np.array([1.0, 0.2, 0.8, 0.8])
        sig = np.array([1.0, 0.5, 0.9, 1.1])
        self.eps_pair, self.sig_pair = _lorentz_berthelot(eps, sig)
        # 16-entry per-type-pair tables, indexed by a pair's type code
        eps_t, sig_t = self.eps_pair.ravel(), self.sig_pair.ravel()
        sr6_c = (sig_t / cutoff) ** 6
        self._sig2 = sig_t**2
        self._eps4 = 4.0 * eps_t
        self._eps24 = 24.0 * eps_t
        self._lj_shift = 4.0 * eps_t * (sr6_c**2 - sr6_c)
        self._qq = (coulomb_strength * CHARGES[:, None] * CHARGES[None, :]).ravel()
        #: (nlist, types, molecule_ids, (i, j, code)) of the last list seen
        self._table: tuple | None = None

    # ------------------------------------------------------------------
    def _pair_table(
        self, system: ParticleSystem, nlist: NeighborList
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(i, j, code)`` of ``nlist``'s intermolecular pairs, built on
        the first call for a list and reused until the list (or the
        system's type/molecule arrays) is replaced."""
        cached = self._table
        if (
            cached is not None
            and cached[0] is nlist
            and cached[1] is system.types
            and cached[2] is system.molecule_ids
        ):
            return cached[3]
        pairs = nlist.pairs
        mol = system.molecule_ids
        inter = np.flatnonzero(mol[pairs[:, 0]] != mol[pairs[:, 1]])
        i = pairs[inter, 0]
        j = pairs[inter, 1]
        # compact per-pair state: it lives as long as the list does
        code = (system.types[i] * Species.COUNT + system.types[j]).astype(np.int8)
        i, j = i.astype(np.int32), j.astype(np.int32)
        table = (i, j, code)
        self._table = (nlist, system.types, system.molecule_ids, table)
        return table

    def _pair_forces(
        self, system: ParticleSystem, nlist: NeighborList
    ) -> tuple[np.ndarray, float, int]:
        pos = system.positions
        i, j, code = self._pair_table(system, nlist)
        if len(i) == 0:
            return np.zeros_like(pos), 0.0, 0
        # coordinate-major (3, m) layout: row gathers and per-axis sums
        # run on contiguous memory; minimum image in place
        pos_t = pos.T.copy()
        lengths = system.box.lengths[:, None]
        dr = pos_t.take(i, axis=1)
        dr -= pos_t.take(j, axis=1)
        shift = dr / lengths
        np.round(shift, out=shift)
        shift *= lengths
        dr -= shift
        r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2]
        within = np.flatnonzero(r2 <= self.cutoff**2)
        if len(within) == 0:
            return np.zeros_like(pos), 0.0, 0
        i, j, code = i.take(within), j.take(within), code.take(within)
        dr, r2 = dr.take(within, axis=1), r2.take(within)
        r = np.sqrt(r2)

        sr6 = (self._sig2.take(code) / r2) ** 3
        sr12 = sr6**2
        # truncated & shifted LJ energy
        e_lj = self._eps4.take(code) * (sr12 - sr6) - self._lj_shift.take(code)
        # dU/dr * (1/r) factor for LJ
        f_lj_over_r = self._eps24.take(code) * (2.0 * sr12 - sr6) / r2

        qq_screen = self._qq.take(code) * np.exp(-self.kappa * r)
        e_coul = qq_screen / r
        f_coul_over_r = qq_screen * (1.0 + self.kappa * r) / (r2 * r)

        f_over_r = f_lj_over_r + f_coul_over_r
        fvec = f_over_r * dr
        forces = scatter_add_pairs(len(pos), i, j, fvec.T)
        return forces, float(np.sum(e_lj + e_coul)), len(i)

    def _bond_forces(
        self, system: ParticleSystem
    ) -> tuple[np.ndarray, float, int]:
        bonds = system.bonds
        if len(bonds) == 0:
            return np.zeros_like(system.positions), 0.0, 0
        i, j = bonds[:, 0], bonds[:, 1]
        dr = system.box.minimum_image(
            system.positions[i] - system.positions[j]
        )
        r = np.linalg.norm(dr, axis=1)
        stretch = r - self.bond_r0
        energy = 0.5 * self.bond_k * stretch**2
        # F_i = -k (r - r0) * dr/r
        f = (-self.bond_k * stretch / np.maximum(r, 1e-12))[:, None] * dr
        forces = scatter_add_pairs(system.n_atoms, i, j, f)
        return forces, float(energy.sum()), len(bonds)

    # ------------------------------------------------------------------
    def compute(
        self, system: ParticleSystem, nlist: NeighborList
    ) -> ForceResult:
        """Total forces and potential energy (paper's step 6 kernel)."""
        f_pair, e_pair, n_pairs = self._pair_forces(system, nlist)
        f_bond, e_bond, n_bonds = self._bond_forces(system)
        return ForceResult(
            forces=f_pair + f_bond,
            potential_energy=e_pair + e_bond,
            pair_count=n_pairs,
            bond_count=n_bonds,
        )
