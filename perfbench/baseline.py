"""Run the benchmark on several seeds per workload and record the figures.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1-10

It writes perfbench/BASELINE.json.  For each workload it makes one timed run
per seed and records, for each end-to-end metric, every value, the median
and the spread (distance between the first and third quartile over the
median).  It then makes one traced run on the first seed and records the
per-layer metrics.  Runs are made one after another, with the run length
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    record = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        values, runs = {}, []
        for seed in args.seeds:
            env, res = run(name, seed, bench["run_seconds"], 0)
            runs.append({k: res[k] for k in ("correct", "attempted", "failed")})
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(name, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  flush=True)
        summary = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary[metric] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "values": vals}
            print(f"  {metric:<14} median {med:.4f} spread {(q3 - q1) / med:.4f}", flush=True)
        _, traced = run(name, args.seeds[0], bench["run_seconds"], 1)
        record["env"] = env
        record["workloads"][name] = {
            "end_to_end": summary, "runs": runs,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(os.path.join(HERE, "BASELINE.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
