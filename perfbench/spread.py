"""Run workloads over several seeds and report the run-to-run spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--seconds S]
                                [--out FILE] [--baseline]

For every end-to-end metric of every workload it prints the median of the
per-seed values, their quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median and that metric's bound from BENCHMARK.json.  A spread
at or above a third of its bound is marked, except for setup_s, whose
medians are compared between sets of runs instead.  --out saves every
value; --baseline writes perfbench/baseline.json from this set of runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out")
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seeds_from(args.seeds)
    values = {}
    wall = {}
    ok = True
    for name in args.workloads.split(","):
        values[name] = {}
        wall[name] = []
        for seed in seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
            wall[name].append(time.perf_counter() - t0)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not res["correct"]:
                ok = False
                print(f"{name} seed {seed}: FAILED", file=sys.stderr)
            for metric, m in res["metrics"].items():
                values[name].setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: {wall[name][-1]:.1f} s", file=sys.stderr)
    summary = {}
    for name, per_metric in values.items():
        summary[name] = {}
        print(f"{name}  (runs took {min(wall[name]):.1f}-{max(wall[name]):.1f} s)")
        for metric, vals in per_metric.items():
            med, q1, q3, spread = quartile_spread(vals)
            bound = bounds[metric]
            flag = "" if metric == "setup_s" or spread < bound / 3 else "  <-- wide"
            print(f"  {metric:14s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.4f}  bound {bound}{flag}")
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": spread}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": seeds, "seconds": args.seconds, "values": values,
             "wall_s": wall, "summary": summary}, indent=1))
    if args.baseline:
        path = HERE / "baseline.json"
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc["environment"] = {"python": platform.python_version(),
                              "nproc": os.cpu_count(),
                              "machine": platform.machine()}
        doc["baseline"] = {"seeds": seeds, "seconds": args.seconds,
                           "workloads": summary}
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
