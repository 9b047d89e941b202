"""Run-to-run spread of the end-to-end metrics, per workload.

    python3 perfbench/spread.py --seeds 10 --seconds 20 [--workloads a,b]

Runs ``perfbench/run.py --trace 0`` once per seed for each workload, one
run at a time, and prints for every metric the median of the runs and the
spread: the distance between the first and third quartile over the median.
A spread below a third of the metric's bound is steady; above the bound the
metric cannot tell a regression from noise. Exits 1 when any spread other
than that of ``setup_s`` exceeds its bound. The per-run results are written
to ``.perfbench/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            runs[workload].append({"seed": seed, **result})
        print(f"{workload}: {args.seeds} runs of {args.seconds} s")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs[workload]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
            if spread > bound and name != "setup_s":
                ok = False
            print(f"  {name:12s} median {med:.6g}  spread {spread:.4f}  bound {bound}  {verdict}")
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(runs, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
