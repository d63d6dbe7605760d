"""The layer boundaries the traced run wraps, by module.

Layer names follow the ``repro`` packages. A target's ``must`` says in
which workload families it has to fire (``figs`` covers both figure
workloads, ``pooled`` only the pooled one); targets with an empty
``must`` are private names whose absence only leaves their metric at 0.
"""

from __future__ import annotations

from perfbench.ledger import Target

F = ("figs",)
P = ("pooled",)
I = ("insitu",)
FI = ("figs", "insitu")

P2P = ("send", "recv", "isend", "irecv", "sendrecv")
COLLECTIVES = (
    "barrier",
    "bcast",
    "gather",
    "scatter",
    "allgather",
    "allreduce",
    "reduce",
    "alltoall",
    "split",
    "dup",
)
NOISE_DRAWS = ("phase_factor_pair", "phase_factors", "sensor_noise", "draw_job_factor")
RNG_DRAWS = ("uniform", "normal", "lognormal", "integers", "choice", "child")

_PAPER_CONTROLLERS = (
    ("static", "repro.core.static", "StaticController"),
    ("seesaw", "repro.core.seesaw", "SeeSAwController"),
    ("power_aware", "repro.core.power_aware", "PowerAwareController"),
    ("time_aware", "repro.core.time_aware", "TimeAwareController"),
)


def _t(key, layer, module, attr, must=(), **kw) -> Target:
    return Target(key, layer, module, attr, must, **kw)


def _experiments() -> list[Target]:
    m = "repro.experiments"
    return [
        _t("experiments.run_fig4", "experiments", f"{m}.fig4", "run_fig4", F),
        _t("experiments.run_fig5", "experiments", f"{m}.fig5", "run_fig5", F),
        _t("experiments.run_table2", "experiments", f"{m}.table2", "run_table2", F),
        _t("experiments.run_scenario", "experiments", f"{m}.runner", "run_scenario", F),
        _t(
            "experiments.scenario_improvement",
            "experiments",
            f"{m}.runner",
            "scenario_improvement",
            F,
        ),
        _t(
            "experiments.build_controller",
            "experiments",
            f"{m}.runner",
            "build_controller",
            FI,
        ),
    ]


def _figs_path() -> list[Target]:
    """Spec loading, submission, and the proxy job under it."""
    proxy = "repro.workloads.lammps_proxy"
    return [
        _t("scenario.load_suite", "scenario", "repro.scenario.loader", "load_suite", F),
        _t("scenario.with_job", "scenario", "repro.scenario.spec", "ScenarioSpec.with_job", F),
        _t("scenario.to_cells", "scenario", "repro.scenario.spec", "ScenarioSpec.to_cells", F),
        _t(
            "scenario.get_controller",
            "scenario",
            "repro.scenario.registry",
            "get_controller",
            FI,
        ),
        _t(
            "campaign.run_cells",
            "campaign",
            "repro.campaign.executor",
            "CampaignEngine.run_cells",
            F,
        ),
        _t("campaign.cell_key", "campaign", "repro.campaign.hashing", "cell_key", F),
        _t("campaign.run_cell", "campaign", "repro.campaign.cells", "run_cell", F),
        # parent-side merge of the telemetry pool workers ship back
        _t("obs.absorb", "obs", "repro.obs.merge", "TelemetryMux.absorb", P, truthy=True),
        _t("workloads.run_job", "workloads", proxy, "run_job", F),
        _t("workloads.session_init", "workloads", proxy, "ProxyJobSession.__init__", F),
        _t("workloads.step", "workloads", proxy, "ProxyJobSession.step", F),
        _t("workloads.run_program", "workloads", proxy, "_Partition.run_program"),
        _t("workloads.build_observation", "workloads", proxy, "_build_observation"),
    ]


def _power() -> list[Target]:
    ex, rapl = "repro.power.execution", "repro.power.rapl"
    return [
        _t("power.execute_phase", "power.execution", ex, "execute_phase", FI),
        _t("power.wait_energy", "power.execution", ex, "wait_energy"),
        # a call that reaches operating_point is a cache miss
        _t("power.op_cached", "power.model", ex, "_operating_point_cached"),
        _t(
            "power.operating_point",
            "power.model",
            "repro.power.model",
            "operating_point",
            FI,
            parent="power.op_cached",
        ),
        _t(
            "power.segment_at",
            "power.rapl",
            rapl,
            "RaplDomainArray.segment_at",
            FI,
            parent="power.execute_phase",
        ),
        _t("power.request_caps", "power.rapl", rapl, "RaplDomainArray.request_caps", FI),
        _t("power.rapl_init", "power.rapl", rapl, "RaplDomainArray.__init__", FI),
    ]


def _noise_and_rng() -> list[Target]:
    noise, rng = "repro.cluster.noise", "repro.util.rng"
    out = [_t("cluster.noise_init", "cluster.noise", noise, "NoiseModel.__init__", F)]
    for name in NOISE_DRAWS:
        must = F if name == "phase_factor_pair" else ()
        out.append(_t(f"cluster.{name}", "cluster.noise", noise, f"NoiseModel.{name}", must))
    for name in RNG_DRAWS:
        must = F if name in ("lognormal", "uniform") else ()
        out.append(_t(f"util.rng.{name}", "util", rng, f"RngStream.{name}", must))
    out.append(_t("util.median", "util", "repro.util.stats", "median", F))
    out.append(
        _t("util.percent_improvement", "util", "repro.util.stats", "percent_improvement", F)
    )
    return out


def _core() -> list[Target]:
    out = []
    for label, module, cls in _PAPER_CONTROLLERS:
        out.append(
            _t(f"core.{label}.observe", "core", module, f"{cls}.observe", FI, truthy=True)
        )
        out.append(
            _t(
                f"core.{label}.initial_allocation",
                "core",
                module,
                f"{cls}.initial_allocation",
                FI,
            )
        )
    return out


def _insitu_path() -> list[Target]:
    """The coupler and everything below it. Process resumes run the
    coupler's rank bodies, so their self time is insitu's."""
    rep, comm, nrt = "repro.insitu.replica", "repro.mpi.comm", "repro.polimer.noderuntime"
    out = [
        _t("insitu.run_insitu", "insitu", "repro.insitu.coupler", "run_insitu", I),
        _t("insitu.advance", "insitu", "repro.des.process", "Process._advance", I),
        _t("insitu.step_report", "insitu", rep, "SharedReplica.step_report", I),
        _t("insitu.snapshots", "insitu", rep, "SharedReplica.snapshots", I),
        _t("insitu.ensemble_update", "insitu", rep, "AnalysisEnsemble.update", I),
        _t("insitu.merge_slices", "insitu", rep, "merge_slices", I),
        _t("md.step", "md", "repro.md.verlet", "VelocityVerlet.step", I),
        _t("md.build_neighbor_list", "md", "repro.md.neighbor", "build_neighbor_list", I),
        _t("md.forces", "md", "repro.md.forces", "ForceField.compute", I),
        _t("md.compute_thermo", "md", "repro.md.thermo", "compute_thermo", I),
        _t("md.water_ion_box", "md", "repro.md.system", "water_ion_box", I),
        _t("analysis.update", "analysis", "repro.analysis.base", "Analysis.update", I),
        _t("analysis.result", "analysis", "repro.analysis.base", "Analysis.result"),
        _t("des.run", "des", "repro.des.engine", "Engine.run", I),
        _t("des.schedule", "des", "repro.des.engine", "Engine.schedule", I),
        _t("des.schedule_at", "des", "repro.des.engine", "Engine.schedule_at"),
        _t("des.succeed", "des", "repro.des.process", "SimEvent.succeed"),
        _t("des.succeed_inline", "des", "repro.des.process", "SimEvent._succeed_inline"),
        _t("mpi.world_run", "mpi", comm, "MpiWorld.run", I),
    ]
    for name in P2P:
        must = I if name in ("send", "recv") else ()
        out.append(_t(f"mpi.{name}", "mpi", comm, f"Communicator.{name}", must))
    for name in COLLECTIVES:
        must = I if name in ("bcast", "allgather", "allreduce") else ()
        out.append(_t(f"mpi.{name}", "mpi", comm, f"Communicator.{name}", must))
    out += [
        _t("polimer.init", "polimer", "repro.polimer.api", "poli_init_power_manager", I),
        _t("polimer.poli_power_alloc", "polimer", "repro.polimer.api", "poli_power_alloc", I),
        _t(
            "polimer.power_alloc",
            "polimer",
            "repro.polimer.manager",
            "PowerManager.power_alloc",
            I,
        ),
        _t(
            "polimer.initialize",
            "polimer",
            "repro.polimer.manager",
            "PowerManager.initialize",
            I,
        ),
        _t("polimer.compute", "polimer", nrt, "NodeRuntime.compute", I),
        _t("polimer.request_cap", "polimer", nrt, "NodeRuntime.request_cap", I),
        _t("polimer.energy_counter", "polimer", nrt, "NodeRuntime.energy_counter_j", I),
        _t("polimer.mean_power", "polimer", nrt, "NodeRuntime.mean_power_w"),
        _t("polimer.compute_await", "polimer", nrt, "_ComputeAwaitable.__sim_await__"),
    ]
    return out


TARGETS: list[Target] = [
    *_experiments(),
    *_figs_path(),
    *_power(),
    *_noise_and_rng(),
    *_core(),
    *_insitu_path(),
]
