"""Measure a baseline: N seeded runs per workload plus one traced run each.

Run from the root of a checkout:

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For every workload and end-to-end metric it records the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (interquartile
range over median) and the sample count; beside them the per-layer metrics
and the layer table of one traced run.  Runs go one after another, never in
parallel, so that they do not slow each other.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if out.returncode or not result or not result["correct"]:
        raise RuntimeError(
            f"{' '.join(cmd)} failed:\n{out.stdout}\n{out.stderr}")
    return result, lines[:-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    out = {"run_seconds": seconds, "seeds": seeds, "end_to_end": {},
           "per_layer": {}, "layer_report": {}}
    for name in names:
        values = {}
        for seed in seeds:
            result, _ = bench(name, seed, seconds, 0)
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(name, seed, {k: round(v[-1], 6) for k, v in values.items()},
                  flush=True)
        summary = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            summary[metric] = {"median": median, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median, "n": len(vals)}
            print(f"{name} {metric}: median {median:.6g} "
                  f"spread {(q3 - q1) / median:.2%}", flush=True)
        out["end_to_end"][name] = summary
        result, report = bench(name, seeds[0], seconds, 1)
        out["per_layer"][name] = {k: m["value"]
                                  for k, m in result["metrics"].items()}
        out["layer_report"][name] = report
        print("\n".join(report), flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
