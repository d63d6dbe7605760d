"""Pinned trajectory fingerprints: the DES/power fast paths must be
bit-identical to the pre-optimization engine.

The hex digests below were captured from the unoptimized code (handle
-object heap, per-rank collective wakeups, uncached operating points)
on the same seeds. Every optimization since — slotted dispatch,
cancellation compaction, coalesced collectives, operating-point
caching, the single-segment executor fast path — is required to leave
these trajectories byte-for-byte unchanged. A digest change here means
the physics moved, not just the speed: refresh only with a deliberate,
documented behavior change.
"""

import dataclasses
import hashlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from repro.cluster.noise import NoiseConfig
from repro.cluster.node import THETA_NODE
from repro.core import SeeSAwController, StaticController
from repro.experiments.runner import build_controller
from repro.insitu.coupler import InsituConfig, run_insitu
from repro.power.rapl import CapMode
from repro.workloads import JobConfig, ProxyJobSession, run_job


def _digest(values) -> str:
    """SHA-256 over exact float bit patterns (float.hex) and ints."""
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, float):
            h.update(v.hex().encode())
        elif isinstance(v, bytes):
            h.update(v)
        else:
            h.update(repr(v).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def job_fingerprint(result) -> str:
    values = [result.total_time_s, result.controller_name, len(result.records)]
    for r in result.records:
        values += [
            r.step, r.t_start, r.interval_s, r.sim_work_s, r.ana_work_s,
            r.overhead_s, r.sync_s, r.slack_norm, r.sim_cap_mean_w,
            r.ana_cap_mean_w, r.sim_power_mean_w, r.ana_power_mean_w,
            r.sim_energy_j, r.ana_energy_j,
        ]
    return _digest(values)


def insitu_fingerprint(result) -> str:
    values = [result.virtual_time_s, result.verification_failures]
    for step, alloc in result.allocation_log:
        values += [step, alloc.sim_caps_w.tobytes(), alloc.ana_caps_w.tobytes()]
    values += [repr(obs) for obs in result.observation_log]
    return _digest(values)


# Captured from the pre-optimization engine (see module docstring).
EXPECTED_JOB16 = {
    "static": "a0d6fb7bd9154d9d",
    "seesaw": "138b2de07a178aff",
    "power-aware": "366bafffa4b2bc33",
    "time-aware": "0a49d8975b77e6e4",
}
EXPECTED_JOB256_SEESAW = "65a6f9498574dcff"
EXPECTED_INSITU = {
    "seesaw": "8222761c1569878c",
    "static": "8cfe6d3433c4a19e",
}


def _job16_cfg() -> JobConfig:
    return JobConfig(
        analyses=("full_msd", "vacf"),
        dim=16,
        n_nodes=16,
        n_verlet_steps=30,
        seed=11,
    )


def test_proxy_job_trajectories_pinned():
    for name, expected in EXPECTED_JOB16.items():
        cfg = _job16_cfg()
        result = run_job(cfg, build_controller(name, cfg))
        assert job_fingerprint(result) == expected, name


def test_proxy_job_256_node_trajectory_pinned():
    cfg = JobConfig(
        analyses=("all",), dim=36, n_nodes=256, n_verlet_steps=20, seed=17
    )
    result = run_job(cfg, build_controller("seesaw", cfg))
    assert job_fingerprint(result) == EXPECTED_JOB256_SEESAW


def test_insitu_trajectories_pinned():
    for name, cls in (("seesaw", SeeSAwController), ("static", StaticController)):
        cfg = InsituConfig(
            n_sim_ranks=2, n_ana_ranks=2, dim=1, n_verlet_steps=6, j=1
        )
        controller = cls(
            cfg.power_cap_w * cfg.world_size,
            cfg.n_sim_ranks,
            cfg.n_ana_ranks,
            THETA_NODE,
        )
        result = run_insitu(cfg, controller)
        assert insitu_fingerprint(result) == EXPECTED_INSITU[name], name


# ---------------------------------------------------------------------------
# Full in-situ output: everything the science depends on, not just the
# power-management trajectory. Each literal was captured on the last tree
# that kept a per-rank execution path (every rank integrating its own MD
# replica and running its own analyses), after asserting that the
# per-rank run produced the identical fingerprint; the shared replica is
# now the only path and these literals are its reference.
# ---------------------------------------------------------------------------
DEFAULT_ANALYSES = ("rdf", "vacf", "msd")
ALL_ANALYSES = ("rdf", "vacf", "msd", "msd1d", "msd2d")
SLAB_ANALYSES = ("msd1d", "msd2d")

#: (controller, ranks per partition, j, analyses)
INSITU_FULL_CONFIGS = [
    ("static", 2, 1, ALL_ANALYSES),
    ("static", 3, 2, DEFAULT_ANALYSES),
    ("static", 4, 1, SLAB_ANALYSES),
    ("seesaw", 2, 2, DEFAULT_ANALYSES),
    ("seesaw", 3, 1, SLAB_ANALYSES),
    ("seesaw", 4, 2, ALL_ANALYSES),
    ("power-aware", 2, 1, SLAB_ANALYSES),
    ("power-aware", 3, 2, ALL_ANALYSES),
    ("power-aware", 4, 1, DEFAULT_ANALYSES),
    ("time-aware", 2, 2, ALL_ANALYSES),
    ("time-aware", 3, 1, DEFAULT_ANALYSES),
    ("time-aware", 4, 2, SLAB_ANALYSES),
]

EXPECTED_INSITU_FULL = {
    "static-2x2-j1": {
        "run": "338da75ac87c6256",
        "thermo": "4f2a20670e9a268c",
        "analysis": "cc3769f8d4819327",
        "allocations": "3d3bc3d06f185da3",
        "observations": "4a499104f7d4cc93",
    },
    "static-3x3-j2": {
        "run": "861d97dd31244417",
        "thermo": "4f2a20670e9a268c",
        "analysis": "a4941ba7e5c017c6",
        "allocations": "3d3bc3d06f185da3",
        "observations": "072715d199e97f58",
    },
    "static-4x4-j1": {
        "run": "8b176a94b1bfa8ff",
        "thermo": "4f2a20670e9a268c",
        "analysis": "f447c4c7b24d6de6",
        "allocations": "3d3bc3d06f185da3",
        "observations": "4f0164f192b39f6b",
    },
    "seesaw-2x2-j2": {
        "run": "184b253a690f5272",
        "thermo": "4f2a20670e9a268c",
        "analysis": "a4941ba7e5c017c6",
        "allocations": "f32a73f30dbd1260",
        "observations": "a4708e58ff5ac561",
    },
    "seesaw-3x3-j1": {
        "run": "5ed9e2aaf9d5e179",
        "thermo": "4f2a20670e9a268c",
        "analysis": "f447c4c7b24d6de6",
        "allocations": "300966d2c36424dc",
        "observations": "e28089383f45bad1",
    },
    "seesaw-4x4-j2": {
        "run": "77cfa0f3255d07c5",
        "thermo": "4f2a20670e9a268c",
        "analysis": "d1531561d2095eb4",
        "allocations": "6ac21644c6b13925",
        "observations": "548ac91001c315bb",
    },
    "power-aware-2x2-j1": {
        "run": "f5066845bfa8ccc3",
        "thermo": "4f2a20670e9a268c",
        "analysis": "f447c4c7b24d6de6",
        "allocations": "5a197659e80396c1",
        "observations": "3e8c0839f6eb9398",
    },
    "power-aware-3x3-j2": {
        "run": "5dedbc012fb85cd9",
        "thermo": "4f2a20670e9a268c",
        "analysis": "d1531561d2095eb4",
        "allocations": "5110e24f82a5c810",
        "observations": "06ea23442570a47a",
    },
    "power-aware-4x4-j1": {
        "run": "7fe7e1c7b220dc31",
        "thermo": "4f2a20670e9a268c",
        "analysis": "1677050cfcff25f3",
        "allocations": "d099c152233740e1",
        "observations": "a0d1f3f5b7120e15",
    },
    "time-aware-2x2-j2": {
        "run": "9131efd0416ed5dc",
        "thermo": "4f2a20670e9a268c",
        "analysis": "d1531561d2095eb4",
        "allocations": "02894fcc5d8017f1",
        "observations": "4f7881055725438a",
    },
    "time-aware-3x3-j1": {
        "run": "1f0b77a4f891e24a",
        "thermo": "4f2a20670e9a268c",
        "analysis": "1677050cfcff25f3",
        "allocations": "046f7dc8c20e3e86",
        "observations": "e4d6ba89123273e7",
    },
    "time-aware-4x4-j2": {
        "run": "cade39e4b2a2504c",
        "thermo": "4f2a20670e9a268c",
        "analysis": "cce0bf6647911b37",
        "allocations": "1e96c61870d86143",
        "observations": "1284700c772b2c83",
    },
}


def _exact(value) -> list:
    """Flatten ``value`` into leaves :func:`_digest` hashes exactly:
    arrays as (dtype, shape, bytes), floats as ``float.hex``, and
    dataclasses, dicts and sequences field by field."""
    if isinstance(value, np.ndarray):
        return [value.dtype.str, value.shape, value.tobytes()]
    if isinstance(value, (float, np.floating)):
        return [float(value)]
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return [
            leaf
            for key in sorted(value)
            for leaf in (key, *_exact(value[key]))
        ]
    if isinstance(value, (list, tuple)):
        return [len(value), *(leaf for v in value for leaf in _exact(v))]
    return [value]


def insitu_full_fingerprint(result) -> dict:
    """Per-part digests of an in-situ run's complete output."""
    return {
        "run": _digest(
            [
                result.virtual_time_s,
                result.events_executed,
                result.verification_failures,
            ]
        ),
        "thermo": _digest(_exact(result.thermo.records)),
        "analysis": _digest(_exact(result.analysis_results)),
        "allocations": _digest(_exact(result.allocation_log)),
        "observations": _digest(_exact(result.observation_log)),
    }


def run_full_insitu(name: str, ranks: int, j: int, analyses: tuple):
    cfg = InsituConfig(
        n_sim_ranks=ranks,
        n_ana_ranks=ranks,
        n_verlet_steps=4,
        j=j,
        analyses=analyses,
        seed=7,
    )
    # build_controller reads only the budget/shape triple off the config
    shape = SimpleNamespace(
        budget_w=cfg.world_size * cfg.power_cap_w, n_sim=ranks, n_ana=ranks
    )
    return run_insitu(cfg, build_controller(name, shape))


def test_insitu_full_output_pinned():
    got = {
        f"{name}-{ranks}x{ranks}-j{j}": insitu_full_fingerprint(
            run_full_insitu(name, ranks, j, analyses)
        )
        for name, ranks, j, analyses in INSITU_FULL_CONFIGS
    }
    assert got == EXPECTED_INSITU_FULL


# ---------------------------------------------------------------------------
# Proxy-stepper branches: power traces, cap modes, spiked phases, j > 1 with
# mixed analysis intervals, non-uniform caps and mid-run budget changes.
# Captured on the per-phase stepper that preceded the fused per-interval
# phase program; the fused program must reproduce them bit for bit.
# ---------------------------------------------------------------------------
EXPECTED_TRACES = {
    "job": "5edc22b275ecaa64",
    "sim_trace": "65e64415a9c803bb",
    "ana_trace": "be9ea7aa3db229e1",
}
EXPECTED_CAP_MODE = {
    "none": "6189625ee045f46b",
    "long_short": "8f239b1498536a7a",
}
EXPECTED_ALWAYS_SPIKED = "5afbbdec807644ab"
EXPECTED_J2_MIXED_INTERVALS = "ff6bba7238615f7f"
EXPECTED_POWER_AWARE_128 = "adf5c7913d8405c1"
EXPECTED_SET_BUDGET = "925b566c93cf00ff"


def trace_fingerprint(trace) -> str:
    return _digest([v for seg in trace.segments() for v in seg])


def test_proxy_power_traces_pinned():
    cfg = replace(_job16_cfg(), n_verlet_steps=20, collect_traces=True)
    result = run_job(cfg, build_controller("seesaw", cfg))
    got = {
        "job": job_fingerprint(result),
        "sim_trace": trace_fingerprint(result.sim_trace),
        "ana_trace": trace_fingerprint(result.ana_trace),
    }
    assert got == EXPECTED_TRACES


def test_proxy_cap_modes_pinned():
    for mode in (CapMode.NONE, CapMode.LONG_SHORT):
        cfg = replace(_job16_cfg(), cap_mode=mode)
        result = run_job(cfg, build_controller("seesaw", cfg))
        assert job_fingerprint(result) == EXPECTED_CAP_MODE[mode.value], mode


def test_proxy_always_spiked_pinned():
    """Every phase takes the spiked != clean branch."""
    cfg = replace(_job16_cfg(), noise_config=NoiseConfig(spike_prob=1.0))
    result = run_job(cfg, build_controller("seesaw", cfg))
    assert job_fingerprint(result) == EXPECTED_ALWAYS_SPIKED


def test_proxy_j2_mixed_intervals_pinned():
    cfg = JobConfig(
        analyses=("rdf", "full_msd", "vacf"),
        analysis_intervals={"full_msd": 3, "vacf": 2},
        dim=16,
        n_nodes=16,
        j=2,
        n_verlet_steps=30,
        seed=5,
    )
    result = run_job(cfg, build_controller("seesaw", cfg))
    assert job_fingerprint(result) == EXPECTED_J2_MIXED_INTERVALS


def test_proxy_power_aware_128_nodes_pinned():
    """Power-aware redistribution leaves per-node caps non-uniform."""
    cfg = JobConfig(
        analyses=("full_msd",), dim=16, n_nodes=128, n_verlet_steps=20, seed=3
    )
    result = run_job(cfg, build_controller("power-aware", cfg))
    assert job_fingerprint(result) == EXPECTED_POWER_AWARE_128


def test_proxy_set_budget_mid_run_pinned():
    cfg = _job16_cfg()
    session = ProxyJobSession(cfg, build_controller("seesaw", cfg))
    for _ in range(8):
        session.step()
    session.set_budget(cfg.budget_w * 0.9)
    for _ in range(8):
        session.step()
    session.set_budget(cfg.budget_w * 1.2)
    result = session.run()
    assert job_fingerprint(result) == EXPECTED_SET_BUDGET
