"""Shared replica: bit-identity with the per-rank run, memoization,
ordering, merge, and agreement with the components it replaces (per-rank
snapshot extraction, analyses built directly). The coupler's complete
output is pinned by literals in
``tests/experiments/test_trajectory_equivalence.py``.
"""

import numpy as np
import pytest

from repro.analysis import frame_from_system, make_analysis
from repro.cluster.node import THETA_NODE
from repro.core import SeeSAwController, StaticController, TimeAwareController
from repro.insitu import (
    AnalysisEnsemble,
    InsituConfig,
    ReplicaOrderError,
    SharedReplica,
    merge_slices,
    run_insitu,
)
from repro.md import VelocityVerlet, water_ion_box
from repro.md.domain import Snapshot
from tests.experiments.test_trajectory_equivalence import insitu_full_fingerprint

CONTROLLERS = {
    "static": StaticController,
    "seesaw": SeeSAwController,
    "time-aware": TimeAwareController,
}

ALL_ANALYSES = ("rdf", "vacf", "msd", "msd1d", "msd2d")


def build_controller(kind, cfg):
    return CONTROLLERS[kind](
        cfg.world_size * cfg.power_cap_w,
        cfg.n_sim_ranks,
        cfg.n_ana_ranks,
        THETA_NODE,
    )


def assert_tree_equal(a, b, path=""):
    """Exact (bitwise) equality over nested tuples/dicts of arrays."""
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            assert_tree_equal(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_tree_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), f"{path}: arrays differ"
    else:
        assert a == b, f"{path}: {a} != {b}"


# ------------------------------------------------------------ bit-identity

# Digests (see ``insitu_full_fingerprint``) of the fully replicated run, in
# which every simulation rank integrated its own copy of the system, rank 0
# computed thermo and every analysis rank ran its own analyses. Recorded
# from that per-rank execution, which is no longer part of the coupler; the
# shared run produced the same digests when both paths existed.
PER_RANK_DIGESTS = {
    ("seesaw", 2): {
        "run": "ede70c6d20604805",
        "thermo": "ce40a2a834e48621",
        "analysis": "56e21fc674c51c35",
        "allocations": "16e4e48925fc2eb2",
        "observations": "55dc5bc611ec3b22",
    },
    ("static", 2): {
        "run": "1170f6b98bab255a",
        "thermo": "ce40a2a834e48621",
        "analysis": "56e21fc674c51c35",
        "allocations": "3d3bc3d06f185da3",
        "observations": "338b7478de44e133",
    },
    ("seesaw", 4): {
        "run": "888ca34f7785808b",
        "thermo": "ce40a2a834e48621",
        "analysis": "56e21fc674c51c35",
        "allocations": "07ab2097bda3e80f",
        "observations": "d21202a1565e2ddd",
    },
    ("static", 4): {
        "run": "6d867cad2c993e96",
        "thermo": "ce40a2a834e48621",
        "analysis": "56e21fc674c51c35",
        "allocations": "3d3bc3d06f185da3",
        "observations": "1ac6421fc6749bd5",
    },
    ("time-aware", 2): {
        "run": "d344f12f2040c5cf",
        "thermo": "41af37d04627c7ab",
        "analysis": "44a2ed2a66fb301b",
        "allocations": "82c1b01e48f9c252",
        "observations": "6b80e9830d5b657b",
    },
}


@pytest.mark.parametrize("kind", ["static", "seesaw"])
@pytest.mark.parametrize("ranks", [2, 4])
def test_shared_and_per_rank_runs_bit_identical(kind, ranks):
    """Virtual time, DES event count, verification failures, thermo log,
    analysis results, allocation and observation logs all match the
    per-rank run bit for bit."""
    cfg = InsituConfig(
        n_sim_ranks=ranks, n_ana_ranks=ranks, n_verlet_steps=6, seed=11
    )
    res = run_insitu(cfg, build_controller(kind, cfg))
    assert res.verification_failures == 0
    assert insitu_full_fingerprint(res) == PER_RANK_DIGESTS[kind, ranks]


def test_time_aware_controller_also_bit_identical():
    cfg = InsituConfig(n_sim_ranks=2, n_ana_ranks=2, n_verlet_steps=4)
    res = run_insitu(cfg, build_controller("time-aware", cfg))
    assert insitu_full_fingerprint(res) == PER_RANK_DIGESTS["time-aware", 2]


# ------------------------------------------------------------ accounting


def test_fast_path_dedup_accounting():
    """N ranks, one integration: misses are rank-independent, hits scale
    with the redundant rank count."""
    cfg = InsituConfig(n_sim_ranks=4, n_ana_ranks=4, n_verlet_steps=6)
    res = run_insitu(cfg, build_controller("static", cfg))
    # misses: one per step + one snapshot batch + one ensemble update
    # per sync
    assert res.replica_misses == cfg.n_verlet_steps + 2 * cfg.n_syncs
    # every other access is a hit: (ranks-1) redundant requests each
    assert res.replica_hits == (cfg.n_sim_ranks - 1) * res.replica_misses


# ------------------------------------------------------------ SharedReplica


def make_replica(**kw):
    defaults = dict(dim=1, seed=3, dt=0.0005, thermostat_t=1.0, n_sim_ranks=2)
    defaults.update(kw)
    return SharedReplica(**defaults)


def test_step_report_memoized_and_ordered():
    replica = make_replica()
    r1a, t1a = replica.step_report(1)
    r1b, t1b = replica.step_report(1)
    assert r1a is r1b and t1a is t1b
    assert replica.misses == 1 and replica.hits == 1
    with pytest.raises(ReplicaOrderError):
        replica.step_report(3)  # skipping step 2


def test_snapshots_memoized_and_state_checked():
    replica = make_replica()
    batch = replica.snapshots(1, at_step=0)
    assert len(batch) == 2
    assert replica.snapshots(1, at_step=0) is batch
    # requesting sync 2 without having advanced the integrator is a
    # protocol violation, not a silent stale serve
    with pytest.raises(ReplicaOrderError):
        replica.snapshots(2, at_step=1)


def test_shared_snapshots_match_per_rank_extraction():
    replica = make_replica(n_sim_ranks=4)
    batch = replica.snapshots(1, at_step=0)
    for rank in range(4):
        ref = replica.dd.snapshot(rank, step=1)
        got = batch[rank]
        assert np.array_equal(got.positions, ref.positions)
        assert np.array_equal(got.velocities, ref.velocities)
        assert np.array_equal(got.types, ref.types)
        assert np.array_equal(got.molecule_ids, ref.molecule_ids)
        assert np.array_equal(got.atom_ids, ref.atom_ids)


# ------------------------------------------------------------ merge_slices


def make_slices(n_ranks=3, seed=5):
    """Per-rank snapshots of a tiny synthetic system."""
    rng = np.random.default_rng(seed)
    n = 12
    positions = rng.normal(size=(n, 3))
    velocities = rng.normal(size=(n, 3))
    types = rng.integers(0, 3, size=n)
    mols = np.arange(n) // 3
    owners = rng.integers(0, n_ranks, size=n)
    slices = []
    for r in range(n_ranks):
        idx = np.where(owners == r)[0]
        slices.append(
            Snapshot(
                step=1,
                positions=positions[idx],
                velocities=velocities[idx],
                types=types[idx],
                molecule_ids=mols[idx],
                atom_ids=idx,
            )
        )
    return slices, positions, velocities, types, mols


def test_merge_slices_restores_global_order():
    slices, pos, vel, types, mols = make_slices()
    frame = merge_slices(slices, np.ones(3), time=0.5)
    assert np.array_equal(frame.positions, pos)
    assert np.array_equal(frame.velocities, vel)
    assert np.array_equal(frame.types, types)
    assert np.array_equal(frame.molecule_ids, mols)
    assert frame.time == 0.5


def test_merge_slices_out_of_order_gather():
    """An allgather may deliver slices in any rank order."""
    slices, pos, vel, types, mols = make_slices()
    shuffled = [slices[2], slices[0], slices[1]]
    frame = merge_slices(shuffled, np.ones(3), time=1.0)
    assert np.array_equal(frame.positions, pos)
    assert np.array_equal(frame.velocities, vel)
    assert np.array_equal(frame.types, types)


def test_merge_slices_single_slice():
    slices, pos, vel, types, mols = make_slices(n_ranks=1)
    (only,) = slices
    frame = merge_slices([only], np.ones(3), time=2.0)
    assert np.array_equal(frame.positions, pos)
    assert frame.n_atoms == len(pos)


# ------------------------------------------------------------ ensemble


def run_frames(n_frames=4, seed=6):
    system = water_ion_box(dim=1, seed=seed)
    integ = VelocityVerlet(system, dt=0.0005, thermostat_t=1.0)
    frames = []
    for s in range(1, n_frames + 1):
        integ.step()
        frames.append(frame_from_system(system, step=s, time=s * 0.0005))
    return frames


def test_ensemble_matches_per_rank_analyses_all_five():
    frames = run_frames()
    ensemble = AnalysisEnsemble(ALL_ANALYSES)
    reference = [make_analysis(n) for n in ALL_ANALYSES]
    for sync, frame in enumerate(frames, start=1):
        work = ensemble.update(sync, lambda f=frame: f)
        for a in reference:
            a.update(frame)
            assert work[a.name] == a.work_estimate
    assert_tree_equal(
        ensemble.results(), {a.name: a.result() for a in reference}
    )


def test_ensemble_update_runs_once_per_sync():
    frames = run_frames(n_frames=2)
    ensemble = AnalysisEnsemble(("rdf", "msd"))
    calls = [0]

    def factory():
        calls[0] += 1
        return frames[0]

    w1 = ensemble.update(1, factory)
    w2 = ensemble.update(1, factory)
    assert calls[0] == 1  # merge ran once
    assert w1 is w2
    assert ensemble.hits == 1 and ensemble.misses == 1
    with pytest.raises(ReplicaOrderError):
        ensemble.update(3, factory)  # skipped sync 2


def test_metrics_counters_record_dedup():
    from repro.metrics import MetricRegistry, use_metrics

    cfg = InsituConfig(n_sim_ranks=2, n_ana_ranks=2, n_verlet_steps=4)
    registry = MetricRegistry()
    with use_metrics(registry):
        res = run_insitu(cfg, build_controller("static", cfg))
    report = registry.report().to_json()
    counters = report["counters"]
    assert counters["insitu.replica.hits"] == res.replica_hits > 0
    assert counters["insitu.replica.misses"] == res.replica_misses > 0
