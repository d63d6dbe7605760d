"""Particle system and the paper's water/ion benchmark builder.

The paper's LAMMPS benchmark "simulat[es] a box of water molecules
solvating two types of ions" with a base cell of **1568 atoms**
replicated ``dim**3`` times (§VI-C, §VII). We reproduce that shape:

* 512 water molecules → 1536 atoms (O with charge −0.8, two H with
  +0.4 — SPC-like magnitudes, flexible bonds);
* 16 hydronium-like cations and 16 anions → 32 atoms;
* total 1536 + 32 = 1568 atoms per cell.

Interactions are Lennard-Jones per type pair plus a short-range
screened (Yukawa) Coulomb term and harmonic intramolecular O–H bonds —
not a production water model, but a *real* molecular-dynamics system
that exercises every code path the Splitanalysis workflow needs
(neighbor rebuilds, force loops, per-molecule analyses).

Reduced (LJ-style) units are used throughout: σ_OO = 1, ε_OO = 1,
m_O = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.md.box import Box
from repro.util.rng import RngStream

__all__ = [
    "ATOMS_PER_CELL",
    "ParticleSystem",
    "Species",
    "water_ion_box",
]

#: The paper's base-cell size: total atoms = 1568 * dim**3.
ATOMS_PER_CELL = 1568


class Species:
    """Integer type codes used in the type arrays."""

    O = 0  #: water oxygen
    H = 1  #: water hydrogen
    CAT = 2  #: hydronium-like cation
    AN = 3  #: anion

    NAMES = {O: "O", H: "H", CAT: "CAT", AN: "AN"}
    COUNT = 4


#: per-species mass (reduced units; H light, ions heavy)
MASSES = np.array([1.0, 0.13, 1.2, 2.2])
#: per-species charge (reduced)
CHARGES = np.array([-0.8, 0.4, 1.0, -1.0])


@dataclass
class ParticleSystem:
    """State of an MD system.

    ``positions`` are wrapped into the box; ``images`` counts boundary
    crossings so analyses can reconstruct unwrapped trajectories (as
    LAMMPS image flags do — MSD needs this).
    """

    box: Box
    positions: np.ndarray  # (n, 3) wrapped
    velocities: np.ndarray  # (n, 3)
    types: np.ndarray  # (n,) int
    molecule_ids: np.ndarray  # (n,) int; shared id = no pair term, ions unique
    bonds: np.ndarray  # (nb, 2) int atom index pairs
    images: np.ndarray = field(default=None)  # (n, 3) int

    def __post_init__(self) -> None:
        n = len(self.positions)
        if self.positions.shape != (n, 3) or self.velocities.shape != (n, 3):
            raise ValueError("positions/velocities must be (n, 3)")
        if len(self.types) != n or len(self.molecule_ids) != n:
            raise ValueError("per-atom arrays must align")
        if self.bonds.size and self.bonds.max() >= n:
            raise ValueError("bond index out of range")
        if self.images is None:
            self.images = np.zeros((n, 3), dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    @property
    def masses(self) -> np.ndarray:
        return MASSES[self.types]

    @property
    def charges(self) -> np.ndarray:
        return CHARGES[self.types]

    def unwrapped_positions(self) -> np.ndarray:
        """Positions unfolded across periodic images (for MSD/VACF)."""
        return self.positions + self.images * self.box.lengths

    def kinetic_energy(self) -> float:
        return float(
            0.5 * np.sum(self.masses[:, None] * self.velocities**2)
        )

    def temperature(self) -> float:
        """Instantaneous temperature in reduced units (k_B = 1).

        Three degrees of freedom are removed for the zeroed total
        momentum, except for a lone atom (tests use single particles).
        """
        dof = 3 * self.n_atoms - 3 if self.n_atoms > 1 else 3
        return 2.0 * self.kinetic_energy() / dof

    def copy(self) -> "ParticleSystem":
        return ParticleSystem(
            box=self.box,
            positions=self.positions.copy(),
            velocities=self.velocities.copy(),
            types=self.types.copy(),
            molecule_ids=self.molecule_ids.copy(),
            bonds=self.bonds.copy(),
            images=self.images.copy(),
        )


def _base_cell(rng: RngStream) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Build one 1568-atom cell on a perturbed lattice.

    Returns (positions, types, molecule_ids, bonds, edge_length).
    Water molecules are placed on an 8x8x8 lattice of 512 sites; the
    32 ions are scattered into interstitial positions.
    """
    n_water = 512
    sites_per_edge = 8  # 8^3 = 512 water sites
    spacing = 1.65  # reduced units; near-liquid density for sigma=1
    edge = sites_per_edge * spacing

    grid = np.arange(sites_per_edge) * spacing + spacing / 2
    xx, yy, zz = np.meshgrid(grid, grid, grid, indexing="ij")
    o_sites = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
    o_sites = o_sites + rng.normal(0.0, 0.03, size=o_sites.shape)

    bond_len = 0.32
    positions = []
    types = []
    mol_ids = []
    bonds = []
    for mol, o_pos in enumerate(o_sites):
        base = len(positions)
        positions.append(o_pos)
        types.append(Species.O)
        mol_ids.append(mol)
        # Two hydrogens at random orientations around the oxygen.
        for _ in range(2):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            positions.append(o_pos + bond_len * direction)
            types.append(Species.H)
            mol_ids.append(mol)
            bonds.append((base, len(positions) - 1))

    # 16 cations + 16 anions on interstitial lattice sites (offset by
    # half a spacing from the water lattice so nothing overlaps).
    n_each = 16
    interstitial = np.stack(
        [g.ravel() for g in np.meshgrid(grid, grid, grid, indexing="ij")],
        axis=1,
    ) + spacing / 2
    site_idx = rng.choice(len(interstitial), size=2 * n_each, replace=False)
    ion_sites = interstitial[site_idx]
    for k, species in enumerate(
        [Species.CAT] * n_each + [Species.AN] * n_each
    ):
        positions.append(ion_sites[k] + rng.normal(0.0, 0.02, size=3))
        types.append(species)
        mol_ids.append(n_water + len(mol_ids))  # unique mol per ion

    positions = np.asarray(positions, dtype=float)
    types = np.asarray(types, dtype=np.int64)
    mol_ids = np.asarray(mol_ids, dtype=np.int64)
    bonds = np.asarray(bonds, dtype=np.int64)
    assert len(positions) == ATOMS_PER_CELL
    return positions, types, mol_ids, bonds, edge


def water_ion_box(
    dim: int = 1,
    seed: int = 2020,
    temperature: float = 1.0,
) -> ParticleSystem:
    """The paper's benchmark system: ``1568 * dim**3`` atoms.

    ``dim`` is the replication factor of the base cell along each axis
    (the paper's problem-size parameter). Velocities are drawn from a
    Maxwell–Boltzmann distribution at the given reduced temperature and
    the total momentum is zeroed.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = RngStream(seed, name="water_ion_box")
    cell_pos, cell_types, cell_mols, cell_bonds, edge = _base_cell(
        rng.child("cell")
    )

    n_cell = len(cell_pos)
    mols_per_cell = int(cell_mols.max()) + 1
    reps = [
        (i, j, k) for i in range(dim) for j in range(dim) for k in range(dim)
    ]
    positions = np.concatenate(
        [cell_pos + np.array(r, dtype=float) * edge for r in reps]
    )
    types = np.tile(cell_types, len(reps))
    mol_ids = np.concatenate(
        [cell_mols + idx * mols_per_cell for idx in range(len(reps))]
    )
    bonds = (
        np.concatenate(
            [cell_bonds + idx * n_cell for idx in range(len(reps))]
        )
        if cell_bonds.size
        else np.zeros((0, 2), dtype=np.int64)
    )

    box = Box.cubic(edge * dim)
    vel_rng = rng.child("velocities")
    masses = MASSES[types]
    velocities = vel_rng.normal(
        0.0, 1.0, size=(len(positions), 3)
    ) * np.sqrt(temperature / masses)[:, None]
    velocities -= np.average(velocities, axis=0, weights=masses)

    return ParticleSystem(
        box=box,
        positions=box.wrap(positions),
        velocities=velocities,
        types=types,
        molecule_ids=mol_ids,
        bonds=bonds,
    )
