#!/usr/bin/env python3
"""Measures the benchmark's baseline and writes perfbench/baseline.json.

Run from the root of a tdx source tree (takes ~40 minutes on 4 cores):

    python3 perfbench/baseline.py [--seeds 10]

For every workload in BENCHMARK.json it makes two sets of --trace 0 runs,
one run per seed in each, the second set right after the first. Per set and
end-to-end metric it records the median, quartiles and sample count of the
per-run values and their spread: the distance between the quartiles as a
share of the median. It also records how much worse the second set's median
is than the first's, as a share of the first. A spread (setup_s excepted) or
a change above the metric's bound fails the script, after baseline.json is
written. One --trace 1 run on the first seed gives the per-layer values.
Each run's metadata line (nproc, compiler, build type, jobs, seed) is kept.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
SETS = 2


def run(spec, workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
         "--trace", str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True,
        check=True)
    meta, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return meta["meta"], result["metrics"]


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median, "values": values}


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seeds = list(range(1, args.seeds + 1))

    baseline = {"run_seconds": spec["run_seconds"], "seeds": seeds,
                "workloads": {}}
    over = []
    for workload in (w["name"] for w in spec["workloads"]):
        sets, metas = [], []
        for _ in range(SETS):
            values = {}
            for seed in seeds:
                meta, metrics = run(spec, workload, seed, 0)
                metas.append(meta)
                for name, m in metrics.items():
                    values.setdefault(name, []).append(m["value"])
            sets.append(values)
        end_to_end = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            per_set = [summarize(values[name]) for values in sets]
            change = worse_by(m, per_set[0]["median"], per_set[-1]["median"])
            end_to_end[name] = {"unit": m["unit"], "bound": m["bound"],
                                "sets": per_set, "second_worse_by": change}
            medians = [s["median"] for s in per_set]
            spreads = [s["spread"] for s in per_set]
            print(f"{workload:11s} {name:17s} medians "
                  f"{' '.join(f'{v:.6g}' for v in medians)} "
                  f"{m['unit']} spreads "
                  f"{' '.join(f'{s:.4f}' for s in spreads)} worse by "
                  f"{change:+.4f} (bound {m['bound']})")
            if (name != "setup_s" and max(spreads) > m["bound"]) or \
                    change > m["bound"]:
                over.append(f"{workload}/{name}")
        trace_meta, layers = run(spec, workload, seeds[0], 1)
        baseline["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in layers.items()},
            "runs": metas + [trace_meta],
        }

    with open(os.path.join(PERFBENCH, "baseline.json"), "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    if over:
        sys.exit(f"spread or set-to-set change above bound: {over}")


if __name__ == "__main__":
    main()
