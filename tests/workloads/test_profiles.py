"""Tests for the workload profiles and their paper-anchored properties."""

import pytest

from repro.cluster.node import THETA_NODE
from repro.power.model import operating_point
from repro.workloads.profiles import (
    PHASES,
    WorkPhase,
    analysis_work_phases,
    atoms_total,
    comm_scale,
    expand_analyses,
    sim_step_phases,
    snapshot_bytes_per_node,
)


def throttled_duration(phases, cap):
    """Duration of a phase program at a per-node cap (no noise)."""
    total = 0.0
    for p in phases:
        op = operating_point(p.kind, THETA_NODE, cap)
        total += p.work_s / float(op.speed[0])
    return total


def sim_time(cap, dim=16, n_sim=64, n_total=128, step=10):
    return throttled_duration(sim_step_phases(dim, n_sim, n_total, step), cap)


def ana_time(names, cap, dim=16, n_ana=64, n_total=128):
    return throttled_duration(
        analysis_work_phases(list(names), dim, n_ana, n_total), cap
    )


# ------------------------------------------------------------ anchors
def test_atoms_total_formula():
    assert atoms_total(16) == 1568 * 16**3
    with pytest.raises(ValueError):
        atoms_total(0)


def test_anchor_sim_step_is_about_four_seconds():
    """Paper Fig. 4d/e: ~4 s between synchronizations at 110 W."""
    t = sim_time(110.0)
    assert 3.5 < t < 4.5


def test_full_msd_nearly_identical_to_simulation():
    """Paper §VII-B1: full MSD and LAMMPS nearly identical in runtime."""
    t_sim = sim_time(110.0)
    t_msd = ana_time(("full_msd",), 110.0)
    assert 1.0 < t_msd / t_sim < 1.3


def test_light_analyses_two_to_four_times_faster():
    """Paper §VII-B1: VACF, RDF, MSD1D, MSD2D are 2-4x faster."""
    t_sim = sim_time(110.0)
    for name in ("vacf", "rdf", "msd1d", "msd2d"):
        ratio = t_sim / ana_time((name,), 110.0)
        assert 1.8 < ratio < 4.5, (name, ratio)


def test_simulation_cannot_use_beyond_140w():
    """Paper §VII-D: no speedup beyond ~140 W per node."""
    t140 = sim_time(140.0)
    t215 = sim_time(215.0)
    assert (t140 - t215) / t140 < 0.02


def test_simulation_power_sensitive_in_cap_band():
    """...but meaningfully sensitive in the 98-140 W band."""
    t98 = sim_time(98.0)
    t130 = sim_time(130.0)
    assert (t98 - t130) / t98 > 0.15


def test_comm_phase_draw_is_flat_around_103w():
    op_lo = operating_point(PHASES["comm"], THETA_NODE, 104.0)
    op_hi = operating_point(PHASES["comm"], THETA_NODE, 215.0)
    assert 100.0 < op_hi.draw_watts[0] < 106.0
    assert abs(op_hi.draw_watts[0] - op_lo.draw_watts[0]) < 4.0


def test_setup_overhead_first_two_syncs():
    t_setup = sim_time(110.0, step=1)
    t_steady = sim_time(110.0, step=5)
    assert t_setup > 1.3 * t_steady
    assert sim_time(110.0, step=2) > 1.3 * t_steady
    assert sim_time(110.0, step=3) == pytest.approx(t_steady)


# ------------------------------------------------------------ scaling
def test_comm_scale_grows_with_nodes():
    assert comm_scale(128) == pytest.approx(1.0)
    assert comm_scale(1024) > comm_scale(256) > 1.0


def test_comm_fraction_grows_with_scale():
    """The §VII-B3 mechanism: fixed dim, more nodes -> bigger comm share."""

    def comm_fraction(n_total):
        phases = sim_step_phases(48, n_total // 2, n_total)
        comm = sum(p.work_s for p in phases if p.kind.name == "comm")
        return comm / sum(p.work_s for p in phases)

    assert comm_fraction(1024) > comm_fraction(128)


def test_analysis_relative_speed_depends_on_problem_size():
    """Fixed costs: 'all' outpaces the simulation at dim=36 on 128
    nodes (Fig. 7 waits on the sim) but not at small per-node loads."""
    ratio_big = ana_time(("all",), 110.0, dim=36) / sim_time(110.0, dim=36)
    ratio_small = (
        ana_time(("all",), 110.0, dim=16, n_ana=512, n_total=1024)
        / sim_time(110.0, dim=16, n_sim=512, n_total=1024)
    )
    assert ratio_big < ratio_small
    assert ratio_small > 1.5  # analysis is the straggler at scale


def test_snapshot_bytes():
    # 6 doubles per atom
    assert snapshot_bytes_per_node(16, 64) == int(
        atoms_total(16) / 64 * 48
    )


# ------------------------------------------------------------ composites
def test_expand_composites():
    assert expand_analyses(["full_msd"]) == ["msd1d", "msd2d", "msd_avg"]
    assert expand_analyses(["all"]) == ["rdf", "msd1d", "msd2d", "vacf"]
    assert "msd_avg" in expand_analyses(["all_msd"])
    assert expand_analyses(["vacf"]) == ["vacf"]


def test_unknown_analysis_rejected():
    with pytest.raises(ValueError):
        analysis_work_phases(["bogus"], 16, 64, 128)


@pytest.mark.parametrize("work", [-1.0, float("nan"), float("inf"), float("-inf")])
def test_work_phase_rejects_negative_or_non_finite_work(work):
    with pytest.raises(ValueError, match="force: work must be finite"):
        WorkPhase(PHASES["force"], work)


def test_sequential_composition_adds_time():
    t_all = ana_time(("all",), 110.0)
    t_parts = sum(
        ana_time((n,), 110.0) for n in ("rdf", "msd1d", "msd2d", "vacf")
    )
    assert t_all == pytest.approx(t_parts, rel=1e-6)
