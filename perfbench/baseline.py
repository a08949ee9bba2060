#!/usr/bin/env python3
"""Measures the benchmark's baseline and checks that it is steady.

Runs every workload once per seed 1-10 with tracing off and reports, for
each end-to-end metric, the median, the quartiles and the spread (quartile
distance over the median) next to the bound in BENCHMARK.json. Then runs
each workload once traced at seed 1 for the per-layer numbers. Writes
everything to perfbench/baseline.json, labelled with the checkout's commit:

    python3 perfbench/baseline.py
"""
import json
import os
import platform
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SEEDS = list(range(1, 11))
OUT = os.path.join(bench.HERE, "baseline.json")


def result(lines):
    return json.loads(lines[-1])


def commit():
    """The checkout's commit, or "" outside a git repository."""
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=bench.ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    exe = bench.build()

    out = {"commit": commit(), "host": platform.processor() or
           platform.machine(), "cpus": os.cpu_count(),
           "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    unsteady = []
    for workload in bench.WORKLOADS:
        values = {}
        failed = 0
        for seed in SEEDS:
            r = result(bench.run(exe, workload, seed, seconds, 0))
            failed += r["failed"]
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 6)
                                   for k, v in values.items()}, flush=True)
        e2e = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else 0.0
            e2e[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bounds[name],
                         "values": vs}
            note = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                note = "  <-- above a third of the bound"
                unsteady.append(f"{workload} {name}")
            print(f"{workload} {name}: median {med:.6g} spread "
                  f"{spread:.4f} bound {bounds[name]}{note}", flush=True)
        traced = result(bench.run(exe, workload, SEEDS[0], seconds, 1))
        out["workloads"][workload] = {
            "failed": failed + traced["failed"],
            "end_to_end": e2e,
            "per_layer": {k: m["value"]
                          for k, m in traced["metrics"].items()},
        }
    with open(OUT, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print("unsteady:", ", ".join(unsteady) if unsteady else "none")
    return 0


if __name__ == "__main__":
    sys.exit(main())
