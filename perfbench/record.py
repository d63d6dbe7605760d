"""Record ``perfbench/reference.json``: the serial path's output digests
for every job-seed shift the benchmark maps ``--seed`` onto, for both
workload families.

Run from the repository root, at a commit whose outputs are known good
(at shift 0 every render must equal ``artifacts/<name>.txt``)::

    python3 perfbench/record.py

The whole file is rewritten once every shift has been recorded.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, workloads as wl  # noqa: E402


def record_shift(fam: str, shift: int) -> dict:
    if fam == "figs":
        from repro.campaign import CampaignEngine

        with CampaignEngine(jobs=1) as engine:
            p = wl.figs_pass(engine, shift)
        p.finish(wl.figs_op_digest)
    else:
        p = wl.insitu_pass(shift)
        p.finish(wl.insitu_op_digest)
    errors = [f"{op.label}: {op.error}" for op in p.ops if op.error]
    if errors:
        raise SystemExit(f"{fam} shift {shift} failed: {errors}")
    if shift == 0:
        for name, text in p.renders.items():
            artifact = (ROOT / "artifacts" / f"{name}.txt").read_text()
            if artifact != text + "\n":
                raise SystemExit(f"{name} render differs from artifacts/")
    counts = {
        k: v
        for k, v in p.counts.items()
        if k in ("des.events", "campaign.cells_executed")
    }
    return {
        "ops": [[op.label, op.digest] for op in p.ops],
        "renders": {k: wl.text_digest(v) for k, v in p.renders.items()},
        "counts": counts,
    }


def main() -> int:
    ref = {"code": run.code_digest()}
    for fam in ("figs", "insitu"):
        ref[fam] = {}
        for shift in range(run.N_SHIFTS):
            ref[fam][str(shift)] = record_shift(fam, shift)
            print(f"recorded {fam} shift {shift}", flush=True)
    tmp = run.REFERENCE.with_suffix(".tmp")
    tmp.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, run.REFERENCE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
