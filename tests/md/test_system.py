"""Tests for the water/ion benchmark builder."""

import numpy as np
import pytest

from repro.md.system import (
    ATOMS_PER_CELL,
    CHARGES,
    MASSES,
    Species,
    water_ion_box,
)


def test_cell_has_paper_atom_count():
    sys_ = water_ion_box(dim=1)
    assert sys_.n_atoms == ATOMS_PER_CELL == 1568


def test_replication_scales_cubically():
    sys_ = water_ion_box(dim=2)
    assert sys_.n_atoms == 1568 * 8


def test_species_composition():
    sys_ = water_ion_box(dim=1)
    counts = np.bincount(sys_.types, minlength=Species.COUNT)
    assert counts[Species.O] == 512
    assert counts[Species.H] == 1024
    assert counts[Species.CAT] == 16
    assert counts[Species.AN] == 16


def test_charge_neutrality():
    sys_ = water_ion_box(dim=1)
    assert float(sys_.charges.sum()) == pytest.approx(0.0, abs=1e-9)


def test_water_molecules_have_three_atoms():
    sys_ = water_ion_box(dim=1)
    water_mask = np.isin(sys_.types, [Species.O, Species.H])
    mols, counts = np.unique(
        sys_.molecule_ids[water_mask], return_counts=True
    )
    assert len(mols) == 512
    assert np.all(counts == 3)


@pytest.mark.parametrize("dim", [1, 2])
def test_ion_molecule_ids_are_unique(dim):
    """Pair forces skip atoms sharing a molecule id, so ions sharing an
    id would lose every ion-ion interaction."""
    sys_ = water_ion_box(dim=dim)
    ions = np.isin(sys_.types, [Species.CAT, Species.AN])
    ion_ids = sys_.molecule_ids[ions]
    assert len(np.unique(ion_ids)) == ions.sum()
    assert not np.isin(ion_ids, sys_.molecule_ids[~ions]).any()


def test_bonds_connect_o_to_h():
    sys_ = water_ion_box(dim=1)
    assert len(sys_.bonds) == 2 * 512
    assert np.all(sys_.types[sys_.bonds[:, 0]] == Species.O)
    assert np.all(sys_.types[sys_.bonds[:, 1]] == Species.H)


def test_positions_wrapped():
    sys_ = water_ion_box(dim=2)
    assert np.all(sys_.positions >= 0)
    assert np.all(sys_.positions < sys_.box.lengths)


def test_zero_total_momentum():
    sys_ = water_ion_box(dim=1)
    p = (sys_.masses[:, None] * sys_.velocities).sum(axis=0)
    assert np.allclose(p, 0.0, atol=1e-9)


def test_initial_temperature_near_target():
    sys_ = water_ion_box(dim=1, temperature=1.0)
    assert sys_.temperature() == pytest.approx(1.0, rel=0.1)


def test_deterministic_by_seed():
    a = water_ion_box(dim=1, seed=5)
    b = water_ion_box(dim=1, seed=5)
    assert np.allclose(a.positions, b.positions)
    assert np.allclose(a.velocities, b.velocities)


def test_different_seed_differs():
    a = water_ion_box(dim=1, seed=5)
    b = water_ion_box(dim=1, seed=6)
    assert not np.allclose(a.velocities, b.velocities)


def test_dim_zero_rejected():
    with pytest.raises(ValueError):
        water_ion_box(dim=0)


def test_copy_is_independent():
    a = water_ion_box(dim=1)
    b = a.copy()
    b.positions += 1.0
    assert not np.allclose(a.positions, b.positions)


def test_unwrapped_positions_track_images():
    sys_ = water_ion_box(dim=1)
    sys_.images[0] = [1, 0, -1]
    unwrapped = sys_.unwrapped_positions()
    expected = sys_.positions[0] + np.array([1, 0, -1]) * sys_.box.lengths
    assert np.allclose(unwrapped[0], expected)


def test_species_tables_cover_all_types():
    assert len(MASSES) == Species.COUNT
    assert len(CHARGES) == Species.COUNT
