"""End-to-end benchmark of the SeeSAw reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figs-pooled --seed 1 --seconds 40 --trace 0

Workloads: ``figs-pooled`` and ``insitu-wide``, plus ``figs-serial``,
which ``BENCHMARK.json`` leaves out (see ``perfbench/README.md``). With
``--trace 0`` it prints the end-to-end metrics, measured with no
wrappers installed. With ``--trace 1`` it makes one untraced and one
traced pass (and on ``figs-pooled`` a traced serial pass) and prints
the per-layer ledger.
Either way the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and every output is
checked against ``perfbench/reference.json`` (and ``artifacts/`` at
job-seed shift 0).
"""

from __future__ import annotations

import time

#: set-up is timed from here: interpreter start-up is not the program's
_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import host  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

REFERENCE = ROOT / "perfbench" / "reference.json"
STATE = ROOT / ".perfbench_state"

WORKLOADS = ("figs-serial", "figs-pooled", "insitu-wide")
#: passes an untraced run makes at least, whatever ``--seconds`` says
MIN_PASSES = 2
#: job-seed shifts with a recorded reference; ``--seed`` maps onto them
N_SHIFTS = 16
#: extra set-up samples, each taken in a fresh interpreter
SETUP_PROBES = 8
#: counts that must repeat exactly between runs of the same code
EXACT_COUNTS = (
    "des.events",
    "power.execute_phase.calls",
    "cluster.noise.draws",
    "campaign.cells_executed",
    "obs.records_dropped",
)


def family(workload: str) -> str:
    return "insitu" if workload == "insitu-wide" else "figs"


def pool_jobs(workload: str) -> int:
    return host.nproc() if workload == "figs-pooled" else 1


def code_digest() -> str:
    """Digest of the program's sources (what "the same code" means)."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ------------------------------------------------------------------ set-up
def set_up(workload: str) -> dict:
    """Imports, spec loading, engine and pool construction."""
    # every module the passes call into, so none is imported on the clock
    for module in ("repro.experiments.runner", "repro.insitu"):
        importlib.import_module(module)
    for name, _entry, _seed in wl.HARNESSES:
        importlib.import_module(f"repro.experiments.{name}")
    from repro.campaign import CampaignEngine, CellSpec
    from repro.scenario import load_suite
    from repro.workloads import JobConfig

    import_s = time.perf_counter() - _T_START

    engine = None
    spawn_s = 0.0
    if family(workload) == "figs":
        for name, _entry, _seed in wl.HARNESSES:
            load_suite(name)
        jobs = pool_jobs(workload)
        engine = CampaignEngine(jobs=jobs)
        if jobs > 1:
            # the pool starts on the first multi-cell batch: start it
            # here with a throwaway batch so set-up carries the spawn
            t0 = time.perf_counter()
            tiny = JobConfig(n_nodes=2, n_verlet_steps=2, dim=1)
            engine.run_cells([CellSpec("static", tiny, i) for i in range(jobs)])
            spawn_s = time.perf_counter() - t0
            if engine.scheduler_stats is None:
                raise RuntimeError("the worker pool did not start")
    else:
        wl.insitu_config(0)
    return {
        "engine": engine,
        "setup_s": time.perf_counter() - _T_START,
        "import_s": import_s,
        "pool_spawn_s": spawn_s,
    }


def setup_probe(workload: str) -> float:
    """Set-up seconds of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------- passes
def worker_pids(engine) -> list[int]:
    stats = engine.scheduler_stats if engine is not None else None
    if stats is None:
        return []
    return [w.pid for w in stats.workers if w.pid is not None]


def cpu_now(engine) -> float:
    """CPU seconds of this process plus its live pool workers."""
    return host.self_cpu_s() + sum(
        host.proc_cpu_s(pid) or 0.0 for pid in worker_pids(engine)
    )


def run_pass(workload: str, shift: int, engine, keep_results: bool = False):
    """One pass over the workload's input, with its CPU time, the
    scheduler stats of every pooled batch, and digested outputs."""
    cpu0 = cpu_now(engine)
    if family(workload) == "figs":
        batches = []
        last = [engine.scheduler_stats]

        def on_submit(_op):
            stats = engine.scheduler_stats
            if stats is not None and stats is not last[0]:
                batches.append(stats)
                last[0] = stats

        p = wl.figs_pass(engine, shift, on_submit)
        p.batches = batches
        digest_op = wl.figs_op_digest
    else:
        p = wl.insitu_pass(shift)
        digest_op = wl.insitu_op_digest
    p.cpu_s = cpu_now(engine) - cpu0
    if keep_results and family(workload) == "figs":
        p.extra = summarize_cells(p)
    p.finish(digest_op)
    return p


def summarize_cells(p) -> dict:
    """Readings that need the live cells and results."""
    from repro.campaign import cell_key

    sizes = []
    keys = set()
    for op in p.ops:
        keys.update(cell_key(s) for s in op.specs)
        sizes.extend(len(pickle.dumps(r)) for r in op.results)
    return {
        "requested": sum(len(op.specs) for op in p.ops),
        "unique": len(keys),
        "result_bytes": statistics.fmean(sizes) if sizes else 0.0,
    }


# ------------------------------------------------------------------ check
def load_reference(workload: str, shift: int) -> dict:
    ref = json.loads(REFERENCE.read_text())
    entry = ref[family(workload)].get(str(shift))
    if entry is None:
        raise SystemExit(f"perfbench: no reference for job-seed shift {shift}")
    return {**entry, "code": ref["code"]}


def check_pass(p, ref: dict, shift: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one pass against the reference."""
    problems = []
    produced = {op.label: op for op in p.ops}
    attempted = failed = 0
    failed_harnesses = set()
    for label, want in ref["ops"]:
        attempted += 1
        op = produced.get(label)
        if op is None:
            problem = "not attempted"
        elif op.error:
            problem = op.error
        elif op.wall_s > wl.OP_TIMEOUT_S:
            problem = f"timed out ({op.wall_s:.1f} s)"
        elif op.digest != want:
            problem = "output differs from the reference"
        else:
            continue
        failed += 1
        failed_harnesses.add(label.split("#")[0])
        problems.append(f"{label}: {problem}")
    for label in produced.keys() - {label for label, _ in ref["ops"]}:
        attempted += 1
        failed += 1
        problems.append(f"{label}: not in the reference")
    for name, want in ref["renders"].items():
        text = p.renders.get(name)
        ok = text is not None and wl.text_digest(text) == want
        if ok and shift == 0:
            artifact = ROOT / "artifacts" / f"{name}.txt"
            ok = artifact.is_file() and artifact.read_text() == text + "\n"
        if not ok:
            problems.append(f"{name}: render differs from the reference")
            if name not in failed_harnesses:
                failed += 1
    return attempted, failed, problems


def same_outputs(a, b) -> bool:
    return [(o.label, o.digest) for o in a.ops] == [
        (o.label, o.digest) for o in b.ops
    ] and a.renders == b.renders


# ---------------------------------------------------------------- metrics
def end_to_end(passes, setup_samples, engine, attempted, failed) -> dict:
    rss = host.self_peak_rss_mb()
    for pid in worker_pids(engine):
        rss = max(rss, host.proc_peak_rss_mb(pid) or 0.0)
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss,
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(workload, u, traced, led, inner, setup, steal) -> dict:
    """The ledger: counts and self times from the traced pass (``led``),
    plus what the program exposes, read from the untraced pass ``u``.
    The layers under ``campaign`` come from ``inner``, the ledger of the
    pass that ran the cells in this process."""
    from perfbench.targets import COLLECTIVES, NOISE_DRAWS, P2P

    s = led.stats
    figs = family(workload) == "figs"
    m: dict[str, float] = {}

    # campaign: public engine state of the untraced pass, parent-side spans
    requested = u.extra.get("requested", 0)
    unique = u.extra.get("unique", 0)
    executed = u.counts.get("campaign.cells_executed", 0)
    walls = sorted(op.wall_s for op in u.ops)
    capacity = u.wall_s * (pool_jobs(workload) if workload == "figs-pooled" else 0)
    busy = sum(w.busy_s for b in u.batches for w in b.workers)
    submits = len(u.ops) if figs else 0
    m["campaign.submits"] = submits
    m["campaign.cells_per_submit"] = requested / submits if submits else 0.0
    m["campaign.submit_p50_s"] = statistics.median(walls) if figs else 0.0
    m["campaign.submit_max_s"] = walls[-1] if figs else 0.0
    m["campaign.worker_util"] = busy / capacity if capacity else 0.0
    m["campaign.worker_idle_s"] = capacity - busy if capacity else 0.0
    m["campaign.dispatches"] = sum(b.dispatches for b in u.batches)
    m["campaign.steals"] = sum(b.steals for b in u.batches)
    m["campaign.retries"] = u.counts.get("campaign.retries", 0)
    m["campaign.cells_requested"] = requested
    m["campaign.cells_unique"] = unique
    m["campaign.cells_executed"] = executed
    m["campaign.dedup_ratio"] = unique / executed if executed else 0.0
    m["campaign.result_bytes"] = u.extra.get("result_bytes", 0.0)
    m["campaign.hash_s"] = s["campaign.cell_key"].total_s
    m["campaign.self_s"] = led.layer_self_s("campaign")

    # obs
    traced_executed = traced.counts.get("campaign.cells_executed", 0)
    m["obs.records_shipped"] = u.counts.get("obs.records_shipped", 0)
    m["obs.records_dropped"] = u.counts.get("obs.records_dropped", 0)
    m["obs.coverage"] = (
        s["obs.absorb"].truthy / traced_executed if traced_executed else 0.0
    )
    m["obs.absorb_s"] = s["obs.absorb"].total_s

    # experiments / scenario
    for name, _entry, _seed in wl.HARNESSES:
        m[f"experiments.{name}.wall_s"] = u.harness_wall_s.get(name, 0.0)
    m["scenario.self_s"] = led.layer_self_s("scenario")

    # workloads
    si, calls = inner.stats, inner.calls
    steps = calls("workloads.step")
    m["workloads.run_job.calls"] = calls("workloads.run_job")
    m["workloads.run_job_s"] = si["workloads.run_job"].total_s
    m["workloads.sync_steps"] = steps
    m["workloads.step_us"] = 1e6 * si["workloads.step"].total_s / steps if steps else 0.0
    m["workloads.self_s"] = inner.layer_self_s("workloads")

    # power
    phases = calls("power.execute_phase")
    cached = calls("power.op_cached")
    misses = si["power.operating_point"].under_parent
    m["power.execute_phase.calls"] = phases
    m["power.execute_phase.self_s"] = si["power.execute_phase"].self_s
    m["power.segments_per_phase"] = (
        si["power.segment_at"].under_parent / phases if phases else 0.0
    )
    m["power.operating_point.calls"] = calls("power.operating_point")
    m["power.op_cache_hit_ratio"] = 1.0 - misses / cached if cached else 0.0
    m["power.request_caps.calls"] = calls("power.request_caps")
    m["power.model.self_s"] = inner.layer_self_s("power.model")
    m["power.rapl.self_s"] = inner.layer_self_s("power.rapl")

    # cluster / util / core
    observe = [t.key for t in inner.targets if t.key.endswith(".observe")]
    m["cluster.noise.draws"] = calls(*[f"cluster.{n}" for n in NOISE_DRAWS])
    m["cluster.noise.self_s"] = inner.layer_self_s("cluster.noise")
    m["util.self_s"] = inner.layer_self_s("util")
    m["core.observe.calls"] = calls(*observe)
    m["core.decisions"] = sum(si[k].truthy for k in observe)
    m["core.self_s"] = inner.layer_self_s("core")

    # the in-situ path
    events = u.counts.get("des.events", 0)
    lookups = u.counts.get("insitu.replica_lookups", 0)
    m["insitu.job_p50_s"] = 0.0 if figs else statistics.median(walls)
    m["insitu.job_max_s"] = 0.0 if figs else walls[-1]
    m["insitu.replica_hit_ratio"] = (
        u.counts["insitu.replica_hits"] / lookups if lookups else 0.0
    )
    m["insitu.self_s"] = inner.layer_self_s("insitu")
    m["md.steps"] = calls("md.step")
    m["md.neighbor_builds"] = calls("md.build_neighbor_list")
    m["md.self_s"] = inner.layer_self_s("md")
    m["analysis.updates"] = calls("analysis.update")
    m["analysis.self_s"] = inner.layer_self_s("analysis")
    m["des.events"] = events
    m["des.self_s"] = inner.layer_self_s("des")
    m["des.events_per_s"] = events / u.wall_s
    m["mpi.collectives"] = calls(*[f"mpi.{n}" for n in COLLECTIVES])
    m["mpi.p2p"] = calls(*[f"mpi.{n}" for n in P2P])
    m["mpi.self_s"] = inner.layer_self_s("mpi")
    m["polimer.allocs"] = calls("polimer.power_alloc")
    m["polimer.self_s"] = inner.layer_self_s("polimer")

    # set-up, tracing, host
    m["setup.import_s"] = setup["import_s"]
    m["setup.pool_spawn_s"] = setup["pool_spawn_s"]
    m["trace.overhead_pct"] = 100.0 * (traced.wall_s - u.wall_s) / u.wall_s
    m["trace.unattributed_pct"] = (
        100.0 * (traced.wall_s - led.covered_s()) / traced.wall_s
    )
    m["host.steal_pct"] = steal if steal is not None else 0.0
    return m


# ------------------------------------------------------------ exact counts
def count_drift(workload, shift, counts, ref) -> list[str]:
    """Exact counts that differ from the reference or from an earlier
    correct run of the same code in this checkout; records this run's."""
    code = code_digest()
    drift = []
    if ref["code"] == code:
        for name, want in ref["counts"].items():
            if name in counts and counts[name] != want:
                drift.append(f"{name}: {counts[name]} here, {want} in the reference")
    STATE.mkdir(exist_ok=True)
    path = STATE / "counts.json"
    try:
        seen = json.loads(path.read_text())
    except (OSError, ValueError):
        seen = {}
    key = f"{workload}/{shift}/{code}"
    for name, before in seen.get(key, {}).items():
        if counts.get(name) != before:
            drift.append(f"{name}: {counts.get(name)} here, {before} in an earlier run")
    seen[key] = counts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return drift


# ------------------------------------------------------------------ runs
def untraced_run(args, ctx, ref, shift):
    """Passes for about ``--seconds`` (at least ``MIN_PASSES``);
    end-to-end metrics."""
    engine = ctx["engine"]
    deadline = time.perf_counter() + args.seconds
    passes = []
    attempted = failed = 0
    problems: list[str] = []
    while True:
        p = run_pass(args.workload, shift, engine)
        passes.append(p)
        a, f, probs = check_pass(p, ref, shift)
        attempted, failed, problems = attempted + a, failed + f, problems + probs
        # stop where the run ends nearest the deadline
        typical = statistics.median(q.wall_s for q in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() + typical / 2 > deadline:
            break
    samples = [ctx["setup_s"]] + [
        setup_probe(args.workload) for _ in range(SETUP_PROBES)
    ]
    metrics = end_to_end(passes, samples, engine, attempted, failed)
    header = (
        f"perfbench {args.workload} seed={args.seed} (job-seed shift "
        f"{shift}): medians over {len(passes)} pass(es), set-up median "
        f"of {len(samples)}"
    )
    return metrics, header, [], attempted, failed, problems


def traced_pass(led, workload, shift, engine):
    """One pass with ``led``'s wrappers installed."""
    try:
        led.install(instances=(engine,) if engine is not None else ())
        return run_pass(workload, shift, engine)
    finally:
        led.uninstall()


def traced_run(args, ctx, ref, shift, ticks0):
    """One untraced and one traced pass; the per-layer ledger. On
    ``figs-pooled`` no wrapper reaches a pool worker, so the layers the
    workers run are read from a traced serial pass over the same cells."""
    from repro.campaign import CampaignEngine

    from perfbench.ledger import Ledger
    from perfbench.targets import TARGETS

    engine = ctx["engine"]
    untraced = run_pass(args.workload, shift, engine, keep_results=True)
    led = Ledger(TARGETS)
    traced = traced_pass(led, args.workload, shift, engine)
    silent = set(led.silent(family(args.workload)))
    inner, passes = led, [untraced, traced]
    if args.workload == "figs-pooled":
        silent.update(led.silent("pooled"))
        inner = Ledger(TARGETS)
        with CampaignEngine(jobs=1) as serial:
            passes.append(traced_pass(inner, "figs-serial", shift, serial))
        silent.update(inner.silent("figs"))
    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        a, f, probs = check_pass(p, ref, shift)
        attempted, failed, problems = attempted + a, failed + f, problems + probs
    if not all(same_outputs(untraced, p) for p in passes[1:]):
        problems.append("traced outputs differ from untraced outputs")
        failed += 1
    for key in sorted(silent):
        problems.append(f"wrapper {key} recorded no call")
        attempted += 1
        failed += 1

    metrics = per_layer(
        args.workload, untraced, traced, led, inner, ctx,
        host.steal_pct(ticks0, host.cpu_ticks()),
    )
    metrics["failed_frac"] = failed / attempted
    flags = [
        f"{k}: {untraced.counts[k]} untraced, {traced.counts[k]} traced"
        for k in EXACT_COUNTS
        if k in untraced.counts and untraced.counts[k] != traced.counts.get(k)
    ]
    if failed == 0:
        counts = {k: metrics[k] for k in EXACT_COUNTS}
        flags += count_drift(args.workload, shift, counts, ref)
    metrics["trace.count_drift"] = len(flags)
    header = (
        f"perfbench {args.workload} seed={args.seed} (job-seed shift "
        f"{shift}) per-layer ledger: {led.bindings} bindings wrapped; "
        f"untraced pass {untraced.wall_s:.3f} s, traced pass "
        f"{traced.wall_s:.3f} s"
        + (f", traced serial pass {passes[2].wall_s:.3f} s" if inner is not led else "")
    )
    return metrics, header, flags, attempted, failed, problems


# -------------------------------------------------------------- printing
def declared_metrics(section: str) -> dict:
    """name -> unit of one section of ``BENCHMARK.json``, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def report(header, metrics, units, host_line, problems, flags, attempted, failed):
    print(header)
    width = max(len(k) for k in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>18.6f} {units[name]}")
    print(host_line)
    print(f"check: {attempted - failed}/{attempted} operations match the reference")
    for p in problems:
        print(f"  FAIL {p}")
    for f in flags:
        print(f"  FLAG exact count differs between runs of the same code: {f}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()
        },
    }
    print(json.dumps(result))


# ------------------------------------------------------------------ main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not REFERENCE.is_file():
        print(
            f"perfbench: {ROOT} holds no reproduction sources (src/repro) "
            "or no perfbench/reference.json; run from a full checkout",
            file=sys.stderr,
        )
        return 2

    ctx = set_up(args.workload)
    engine = ctx["engine"]
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": ctx["setup_s"]}))
            return 0
        return measure(args, ctx)
    finally:
        if engine is not None:
            engine.close()


def measure(args, ctx) -> int:
    shift = args.seed % N_SHIFTS
    ref = load_reference(args.workload, shift)
    ticks0 = host.cpu_ticks()
    kernel0 = host.kernel_ms()
    if args.trace:
        run = traced_run(args, ctx, ref, shift, ticks0)
    else:
        run = untraced_run(args, ctx, ref, shift)
    metrics, header, flags, attempted, failed, problems = run
    kernel = statistics.median([kernel0, host.kernel_ms()])
    if args.trace:
        metrics["host.kernel_ms"] = kernel
    for flag in flags:
        print(f"perfbench: COUNT DRIFT {flag}", file=sys.stderr)

    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        print(
            f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
            "disagree with BENCHMARK.json",
            file=sys.stderr,
        )
        return 3
    steal = host.steal_pct(ticks0, host.cpu_ticks())
    report(
        header,
        {k: metrics[k] for k in units},
        units,
        host.describe(host.fingerprint(), steal, kernel)
        + f" jobs={pool_jobs(args.workload)}",
        problems,
        flags,
        attempted,
        failed,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
