"""Tests for the force field: conservation laws and analytic checks."""

import numpy as np
import pytest

from repro.md.box import Box
from repro.md.forces import ForceField
from repro.md.neighbor import build_neighbor_list
from repro.md.system import CHARGES, ParticleSystem, Species, water_ion_box
from repro.md.verlet import VelocityVerlet
from repro.util.scatter import scatter_add_pairs


def two_atom_system(r, types=(Species.CAT, Species.AN), edge=20.0):
    pos = np.array([[5.0, 5.0, 5.0], [5.0 + r, 5.0, 5.0]])
    return ParticleSystem(
        box=Box.cubic(edge),
        positions=pos,
        velocities=np.zeros((2, 3)),
        types=np.array(types),
        molecule_ids=np.array([0, 1]),
        bonds=np.zeros((0, 2), dtype=np.int64),
    )


def compute(system, ff=None):
    ff = ff if ff is not None else ForceField()
    nl = build_neighbor_list(system.positions, system.box, ff.cutoff)
    return ff.compute(system, nl), ff


def test_newton_third_law_pair():
    sys_ = two_atom_system(1.1)
    res, _ = compute(sys_)
    assert np.allclose(res.forces[0], -res.forces[1])


def test_total_force_zero_full_system():
    sys_ = water_ion_box(dim=1)
    res, _ = compute(sys_)
    assert np.allclose(res.forces.sum(axis=0), 0.0, atol=1e-8)


def test_lj_repulsive_at_short_range():
    sys_ = two_atom_system(0.8, types=(Species.O, Species.O))
    # make both atoms separate molecules so the pair term applies
    res, _ = compute(sys_)
    # force on atom 0 points away from atom 1 (negative x)
    assert res.forces[0, 0] < 0


def test_lj_attractive_near_minimum():
    # LJ minimum at 2^(1/6) sigma ~ 1.12; beyond it attraction.
    # Use neutral-ish same-species pair: CAT-CAT has charge +1*+1
    # repulsion, so test with O-O (charge -0.8 each -> repulsive
    # coulomb) at large r where LJ dominates is messy; instead compare
    # energies to confirm a minimum exists for the pair potential.
    ff = ForceField(coulomb_strength=0.0)
    rs = np.linspace(0.95, 2.4, 60)
    energies = []
    for r in rs:
        sys_ = two_atom_system(r, types=(Species.O, Species.O))
        res, _ = compute(sys_, ff)
        energies.append(res.potential_energy)
    energies = np.asarray(energies)
    i_min = int(np.argmin(energies))
    assert 0 < i_min < len(rs) - 1  # interior minimum
    assert rs[i_min] == pytest.approx(2 ** (1 / 6), abs=0.1)


def test_energy_shift_continuous_at_cutoff():
    ff = ForceField(coulomb_strength=0.0)
    just_in = two_atom_system(ff.cutoff - 1e-4, types=(Species.O, Species.O))
    res, _ = compute(just_in, ff)
    assert abs(res.potential_energy) < 1e-2  # shifted to ~0 at cutoff


def test_opposite_charges_attract():
    ff = ForceField()
    # at r ~ 1.6 (beyond LJ minimum for sig~1) coulomb dominates signs
    cat_an = two_atom_system(1.6, types=(Species.CAT, Species.AN))
    res_ca, _ = compute(cat_an, ff)
    cat_cat = two_atom_system(1.6, types=(Species.CAT, Species.CAT))
    res_cc, _ = compute(cat_cat, ff)
    # unlike pair binds more strongly than like pair
    assert res_ca.potential_energy < res_cc.potential_energy


def test_force_is_minus_energy_gradient():
    """Numerical gradient check of the pair potential."""
    ff = ForceField()
    h = 1e-6
    r = 1.4
    e_plus, _ = compute(two_atom_system(r + h, types=(Species.CAT, Species.AN)), ff)
    e_minus, _ = compute(two_atom_system(r - h, types=(Species.CAT, Species.AN)), ff)
    dE_dr = (e_plus.potential_energy - e_minus.potential_energy) / (2 * h)
    res, _ = compute(two_atom_system(r, types=(Species.CAT, Species.AN)), ff)
    f_x_atom1 = res.forces[1, 0]  # atom 1 sits at +x
    assert f_x_atom1 == pytest.approx(-dE_dr, rel=1e-4)


def test_bond_force_restoring():
    pos = np.array([[5.0, 5.0, 5.0], [5.5, 5.0, 5.0]])  # stretched O-H
    sys_ = ParticleSystem(
        box=Box.cubic(20.0),
        positions=pos,
        velocities=np.zeros((2, 3)),
        types=np.array([Species.O, Species.H]),
        molecule_ids=np.array([0, 0]),
        bonds=np.array([[0, 1]]),
    )
    res, ff = compute(sys_)
    # stretched beyond r0=0.32: H pulled back toward O (negative x)
    assert res.forces[1, 0] < 0
    assert res.bond_count == 1


def test_same_molecule_pairs_excluded():
    pos = np.array([[5.0, 5.0, 5.0], [5.3, 5.0, 5.0]])
    sys_ = ParticleSystem(
        box=Box.cubic(20.0),
        positions=pos,
        velocities=np.zeros((2, 3)),
        types=np.array([Species.O, Species.H]),
        molecule_ids=np.array([0, 0]),  # same molecule
        bonds=np.zeros((0, 2), dtype=np.int64),
    )
    res, _ = compute(sys_)
    assert res.pair_count == 0


def test_pair_count_reported():
    sys_ = water_ion_box(dim=1)
    res, _ = compute(sys_)
    assert res.pair_count > 0
    assert res.bond_count == 1024


# ----------------------------------------------------------------------
# Equivalence with the direct per-pair formulation. The kernel builds a
# per-list pair table and hoists the per-type-pair constants; this copy
# of the direct per-step expressions pins that the results did not move.
def _direct_pair_forces(ff, system, nlist):
    pos = system.positions
    pairs = nlist.pairs
    if len(pairs) == 0:
        return np.zeros_like(pos), 0.0, 0
    i, j = pairs[:, 0], pairs[:, 1]
    dr = system.box.minimum_image(pos[i] - pos[j])
    r2 = (dr**2).sum(axis=1)
    within = r2 <= ff.cutoff**2
    same_mol = system.molecule_ids[i] == system.molecule_ids[j]
    keep = within & ~same_mol
    i, j, dr, r2 = i[keep], j[keep], dr[keep], r2[keep]
    if len(i) == 0:
        return np.zeros_like(pos), 0.0, 0
    r = np.sqrt(r2)
    ti, tj = system.types[i], system.types[j]
    eps = ff.eps_pair[ti, tj]
    sig = ff.sig_pair[ti, tj]
    sr6 = (sig**2 / r2) ** 3
    sr12 = sr6**2
    sr6_c = (sig / ff.cutoff) ** 6
    e_lj = 4.0 * eps * (sr12 - sr6) - 4.0 * eps * (sr6_c**2 - sr6_c)
    f_lj_over_r = 24.0 * eps * (2.0 * sr12 - sr6) / r2
    qq = ff.coulomb_strength * CHARGES[ti] * CHARGES[tj]
    screen = np.exp(-ff.kappa * r)
    e_coul = qq * screen / r
    f_coul_over_r = qq * screen * (1.0 + ff.kappa * r) / (r2 * r)
    f_over_r = f_lj_over_r + f_coul_over_r
    fvec = f_over_r[:, None] * dr
    forces = scatter_add_pairs(len(pos), i, j, fvec)
    return forces, float(np.sum(e_lj + e_coul)), len(i)


def assert_matches_direct(ff, system, nlist):
    forces, energy, count = ff._pair_forces(system, nlist)
    ref_forces, ref_energy, ref_count = _direct_pair_forces(ff, system, nlist)
    assert np.array_equal(forces, ref_forces)
    assert energy == ref_energy
    assert count == ref_count


def test_pair_kernel_bit_identical_over_verlet_run():
    system = water_ion_box(dim=1, seed=11, temperature=1.5)
    vv = VelocityVerlet(system, thermostat_t=1.5)
    for _ in range(64):
        vv.step()
        assert_matches_direct(vv.ff, system, vv.neighbor_list)
    assert vv.rebuild_count >= 2


def test_pair_kernel_empty_pair_list():
    sys_ = two_atom_system(8.0)  # far beyond cutoff + skin
    ff = ForceField()
    nl = build_neighbor_list(sys_.positions, sys_.box, ff.cutoff)
    assert nl.n_pairs == 0
    assert_matches_direct(ff, sys_, nl)
    assert ff.compute(sys_, nl).pair_count == 0


def test_pair_kernel_all_pairs_beyond_cutoff():
    ff = ForceField()
    sys_ = two_atom_system(ff.cutoff + 0.1)  # in the skin, not the sphere
    nl = build_neighbor_list(sys_.positions, sys_.box, ff.cutoff, skin=0.3)
    assert nl.n_pairs == 1
    assert_matches_direct(ff, sys_, nl)
    res = ff.compute(sys_, nl)
    assert res.pair_count == 0
    assert not res.forces.any()


def test_rebuilt_list_gets_a_fresh_pair_table():
    system = water_ion_box(dim=1, seed=3)
    ff = ForceField()
    nl = build_neighbor_list(system.positions, system.box, ff.cutoff)
    ff.compute(system, nl)
    table = ff._pair_table(system, nl)
    assert ff._pair_table(system, nl) is table  # reused for the same list

    system.positions = system.box.wrap(system.positions + 0.4)
    rebuilt = build_neighbor_list(system.positions, system.box, ff.cutoff)
    assert ff._pair_table(system, rebuilt) is not table
    assert_matches_direct(ff, system, rebuilt)
    # a copied system (fresh type/molecule arrays) also gets its own
    assert ff._pair_table(system.copy(), rebuilt) is not ff._pair_table(
        system, rebuilt
    )
