"""Integration tests: the full in-situ stack on simulated MPI."""

import numpy as np
import pytest

from repro.cluster.node import THETA_NODE
from repro.core import SeeSAwController, StaticController
from repro.insitu import InsituConfig, run_insitu


def make_cfg(**kw):
    defaults = dict(
        n_sim_ranks=2, n_ana_ranks=2, dim=1, n_verlet_steps=6, seed=9
    )
    defaults.update(kw)
    return InsituConfig(**defaults)


def static_ctl(cfg, **kw):
    return StaticController(
        cfg.world_size * cfg.power_cap_w,
        cfg.n_sim_ranks,
        cfg.n_ana_ranks,
        THETA_NODE,
        **kw,
    )


@pytest.fixture(scope="module")
def seesaw_run():
    cfg = make_cfg()
    ctl = SeeSAwController(
        cfg.world_size * cfg.power_cap_w,
        cfg.n_sim_ranks,
        cfg.n_ana_ranks,
        THETA_NODE,
    )
    return cfg, run_insitu(cfg, ctl)


def test_job_completes_with_results(seesaw_run):
    cfg, res = seesaw_run
    assert res.virtual_time_s > 0
    assert len(res.thermo.records) == cfg.n_verlet_steps
    assert set(res.analysis_results) == set(cfg.analyses)


def test_count_verification_passes(seesaw_run):
    _, res = seesaw_run
    assert res.verification_failures == 0


def test_one_observation_per_sync(seesaw_run):
    cfg, res = seesaw_run
    assert len(res.observation_log) == cfg.n_syncs


def test_analyses_produce_science(seesaw_run):
    _, res = seesaw_run
    r, g = res.analysis_results["rdf"]
    assert g.max() > 0  # liquid structure present
    times, c = res.analysis_results["vacf"]
    assert c[0] == pytest.approx(1.0)
    t_msd, msd = res.analysis_results["msd"]
    assert msd[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(t_msd) > 0)


def test_thermo_energy_is_cross_rank_reduced(seesaw_run):
    _, res = seesaw_run
    # replicated ranks each contribute pe/n -> the reduced total equals
    # the single-system potential energy (sanity of the collective)
    rec = res.thermo.records[-1]
    assert np.isfinite(rec.potential_energy)
    assert rec.total_energy == pytest.approx(
        rec.kinetic_energy + rec.potential_energy
    )


def test_unequal_partitions_rejected():
    with pytest.raises(ValueError):
        make_cfg(n_sim_ranks=2, n_ana_ranks=3)


def test_trailing_steps_rejected():
    # 7 steps at j=2 would run 3 syncs = 6 steps and drop the seventh
    with pytest.raises(ValueError, match="not a multiple of j=2"):
        make_cfg(n_verlet_steps=7, j=2)


def test_mismatched_controller_rejected():
    cfg = make_cfg()
    wrong = StaticController(330.0, 1, 2, THETA_NODE)
    with pytest.raises(ValueError):
        run_insitu(cfg, wrong)


def test_j_greater_than_one_reduces_syncs():
    cfg = make_cfg(n_verlet_steps=6, j=3)
    res = run_insitu(cfg, static_ctl(cfg))
    assert cfg.n_syncs == 2
    assert len(res.observation_log) == 2
    assert len(res.thermo.records) == 6  # thermo still every step


def test_static_run_deterministic():
    cfg = make_cfg()
    a = run_insitu(cfg, static_ctl(cfg))
    b = run_insitu(cfg, static_ctl(cfg))
    assert a.virtual_time_s == pytest.approx(b.virtual_time_s)


def test_seesaw_decisions_recorded(seesaw_run):
    _, res = seesaw_run
    assert len(res.allocation_log) >= 1

