"""The benchmark's workloads, driven through the program's public API.

``figs-*``: the shipped fig4, fig5 and table2 harnesses at full size,
submitting through a :class:`~repro.campaign.CampaignEngine` (serial or
pooled, no cache). One operation is one ``run_cells`` submission, i.e.
one data point.

``insitu-wide``: :func:`~repro.insitu.run_insitu` with 32+32 ranks,
40 Verlet steps and rdf/vacf/msd, once per paper controller. One
operation is one job.

The workload seed shifts every job seed, so each seed is a different
input. Outputs are reduced to digests and compared with the reference
recorded from the serial path (``reference.json``).
"""

from __future__ import annotations

import hashlib
import importlib
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

#: (harness, entry point, job seed the harness defaults to)
HARNESSES = (
    ("fig4", "run_fig4", 42),
    ("fig5", "run_fig5", 17),
    ("table2", "run_table2", 77),
)
INSITU_CONTROLLERS = ("static", "seesaw", "power-aware", "time-aware")
INSITU_SHAPE = dict(n_sim_ranks=32, n_ana_ranks=32, dim=1, n_verlet_steps=40)
INSITU_SEED = 2020
#: an operation slower than this counts as timed out
OP_TIMEOUT_S = 120.0


# ---------------------------------------------------------------- digests
#: the output values of one sync interval, in digest order
SYNC_FIELDS = (
    "step",
    "t_start",
    "interval_s",
    "sim_work_s",
    "ana_work_s",
    "overhead_s",
    "sync_s",
    "slack_norm",
    "sim_cap_mean_w",
    "ana_cap_mean_w",
    "sim_power_mean_w",
    "ana_power_mean_w",
    "sim_energy_j",
    "ana_energy_j",
)
#: the values of one thermo row, in digest order
THERMO_FIELDS = (
    "step",
    "temperature",
    "kinetic_energy",
    "potential_energy",
    "total_energy",
    "density",
)


def _feed(h, value) -> None:
    """Feed plain values (numbers, strings, arrays and containers of
    them) to ``h``; any other object is refused, so a digest never
    depends on class or field names."""
    if value is None or isinstance(value, (bool, int, str)):
        h.update(f"{value!r};".encode())
    elif isinstance(value, float):
        h.update(f"f:{value.hex()};".encode())
    elif isinstance(value, np.generic):
        _feed(h, value.item())
    elif isinstance(value, np.ndarray) and value.dtype != object:
        h.update(f"nd:{value.dtype.str}:{value.shape};".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(f"[{len(value)};".encode())
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(value, dict):
        h.update(f"{{{len(value)};".encode())
        for k in sorted(value, key=repr):
            _feed(h, k)
            _feed(h, value[k])
        h.update(b"}")
    else:
        raise TypeError(f"cannot digest a {type(value).__name__}")


def digest(values) -> str:
    """Content digest of plain output values (floats bit-exact)."""
    h = hashlib.sha256()
    _feed(h, values)
    return h.hexdigest()[:32]


def _rows(records, fields) -> list:
    return [tuple(getattr(r, f) for f in fields) for r in records]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


# ------------------------------------------------------------------ passes
@dataclass
class Op:
    """One operation: a data point (figs) or a job (insitu)."""

    label: str
    wall_s: float = 0.0
    error: str = ""
    #: kept until :meth:`Pass.finish` digests them
    specs: list = field(default_factory=list)
    results: list = field(default_factory=list)
    digest: str | None = None


@dataclass
class Pass:
    """Everything one pass over a workload's input produced."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    ops: list[Op] = field(default_factory=list)
    #: harness name -> rendered text / wall seconds (figs only)
    renders: dict = field(default_factory=dict)
    harness_wall_s: dict = field(default_factory=dict)
    #: exact counts read from public state
    counts: dict = field(default_factory=dict)
    #: scheduler stats of each pooled batch (figs-pooled)
    batches: list = field(default_factory=list)
    #: readings taken from the live results before they are dropped
    extra: dict = field(default_factory=dict)

    def finish(self, digest_op) -> None:
        """Digest every op's results, then drop them."""
        for op in self.ops:
            if not op.error:
                try:
                    op.digest = digest_op(op)
                except (AttributeError, TypeError) as exc:
                    op.error = f"output cannot be digested: {exc}"
            op.results = []


def figs_pass(engine, shift: int, on_submit=None) -> Pass:
    """Run fig4, fig5 and table2 once through ``engine``; ``on_submit``
    sees each completed submission."""
    from repro.campaign import use_engine

    out = Pass()
    submit = engine.run_cells
    current = {"name": "", "n": 0}

    def recording_run_cells(specs):
        specs = list(specs)
        op = Op(f"{current['name']}#{current['n']}", specs=specs)
        current["n"] += 1
        out.ops.append(op)
        t0 = time.perf_counter()
        try:
            op.results = submit(specs)
        except Exception as exc:
            op.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            op.wall_s = time.perf_counter() - t0
        if on_submit is not None:
            on_submit(op)
        return op.results

    journal0 = dict(engine.journal.counts)
    shipped0, dropped0 = engine.obs.absorbed, engine.obs.dropped
    engine.run_cells = recording_run_cells
    t_pass = time.perf_counter()
    try:
        with use_engine(engine):
            for name, entry, seed in HARNESSES:
                current["name"], current["n"] = name, 0
                module = importlib.import_module(f"repro.experiments.{name}")
                t0 = time.perf_counter()
                try:
                    out.renders[name] = getattr(module, entry)(
                        seed=seed + shift
                    ).render()
                except Exception as exc:
                    out.renders[name] = None
                    if not out.ops or not out.ops[-1].error:
                        out.ops.append(
                            Op(f"{name}#render", error=f"{type(exc).__name__}: {exc}")
                        )
                out.harness_wall_s[name] = time.perf_counter() - t0
    finally:
        out.wall_s = time.perf_counter() - t_pass
        del engine.run_cells
    journal = engine.journal.counts
    out.counts = {
        "campaign.cells_executed": journal["misses"] - journal0["misses"],
        "campaign.retries": journal["retries"] - journal0["retries"],
        "obs.records_shipped": engine.obs.absorbed - shipped0,
        "obs.records_dropped": engine.obs.dropped - dropped0,
    }
    return out


def job_outputs(res) -> tuple:
    """The output values of one proxy job: total time, every sync
    interval and both power traces."""
    traces = [t if t is None else t.segments() for t in (res.sim_trace, res.ana_trace)]
    return (res.total_time_s, _rows(res.records, SYNC_FIELDS), traces)


def figs_op_digest(op: Op) -> str:
    return digest([job_outputs(res) for res in op.results])


def insitu_config(shift: int):
    from repro.insitu import InsituConfig

    return InsituConfig(**INSITU_SHAPE, seed=INSITU_SEED + shift)


def insitu_pass(shift: int) -> Pass:
    """One job per paper controller on the wide in-situ configuration."""
    from repro import insitu
    from repro.experiments import runner

    cfg = insitu_config(shift)
    # build_controller reads only the budget/shape triple off the config
    shape = SimpleNamespace(
        budget_w=cfg.world_size * cfg.power_cap_w,
        n_sim=cfg.n_sim_ranks,
        n_ana=cfg.n_ana_ranks,
    )
    out = Pass()
    events = hits = lookups = 0
    t_pass = time.perf_counter()
    for name in INSITU_CONTROLLERS:
        op = Op(name)
        out.ops.append(op)
        t0 = time.perf_counter()
        try:
            res = insitu.run_insitu(cfg, runner.build_controller(name, shape))
        except Exception as exc:
            op.error = f"{type(exc).__name__}: {exc}"
        else:
            op.results = [res]
            events += res.events_executed
            hits += res.replica_hits
            lookups += res.replica_hits + res.replica_misses
        op.wall_s = time.perf_counter() - t0
    out.wall_s = time.perf_counter() - t_pass
    out.counts = {
        "des.events": events,
        "insitu.replica_hits": hits,
        "insitu.replica_lookups": lookups,
    }
    return out


def insitu_op_digest(op: Op) -> str:
    res = op.results[0]
    return digest(
        (
            res.virtual_time_s,
            res.events_executed,
            res.verification_failures,
            _rows(res.thermo.records, THERMO_FIELDS),
            res.analysis_results,
            [(step, a.sim_caps_w, a.ana_caps_w) for step, a in res.allocation_log],
        )
    )
