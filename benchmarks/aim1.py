"""ROADMAP aim-1 numbers from one command.

    python3 benchmarks/aim1.py --seed 0 > aim1.json

Runs the traced run of each workload in a fresh process, one after the
other, and prints one JSON object:

- the ms per G.apply on every grid;
- the G applies per transmitter gradient;
- the seconds per FISTA iteration, split into forward, backward, TV prox
  and monitoring;
- the untraced wall clock of each timed solve.

Each workload's block carries its data_fit and recon_err beside these.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("recon_full_2d", "recon_linear_2d", "forward_3d")


def traced_detail(workload, seed):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.splitlines()
    detail = json.loads(lines[-2])["detail"]
    detail["correct"] = json.loads(lines[-1])["correct"]
    return detail


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    details = {w: traced_detail(w, args.seed) for w in WORKLOADS}
    g_apply_ms = {}
    for w, d in details.items():
        a = d["aim1"]
        for role, grid, ms in (("solve", a["solve_grid"], a["G_apply_ms"]),
                               ("generation", a["generation_grid"], a["generation_G_apply_ms"])):
            if ms:  # 0 where the workload makes no G applies on that grid
                g_apply_ms[f"{grid} {w} {role}"] = ms
    report = {
        "seed": args.seed,
        "environment": details[WORKLOADS[0]]["environment"],
        "G_apply_ms": g_apply_ms,
        "workloads": {w: dict(d["aim1"], correct=d["correct"]) for w, d in details.items()},
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
