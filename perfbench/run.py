#!/usr/bin/env python3
"""Benchmark entry point.

Builds the simulator library and the perfbench program from the checkout's
sources (perfbench/CMakeLists.txt), then runs one workload in its own
process, so the peak RSS it reports belongs to that workload alone:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the checkout root). The program's report is passed through; its last
line is the JSON result. On any build or run failure this exits non-zero
without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["loggp_scale", "fabric_dpml", "payload_verify", "tenant_mix"]
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds perfbench; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise RuntimeError(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                raise RuntimeError(f"build failed (see {log_path}):\n{tail}")
    return os.path.join(out, "perfbench")


def run(exe, workload, seed, seconds, trace, tiny=False):
    """Runs perfbench once; returns its stdout lines. Raises on failure."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{workload}-seed{seed}.json")]
    # perfbench honours --seconds; the timeout only guards against a hang.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=seconds + 150)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise RuntimeError(f"unexpected result keys {sorted(result)}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        exe = build()
        lines = run(exe, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
