#!/usr/bin/env python3
"""Self-test of the benchmark.

Runs every workload at its tiny shape twice with one seed, untraced and
traced, and asserts that tracing changes no simulated result: sim_us, the
digest, sim.events, fabric.flows and simmpi.net_bytes of the untraced passes
must equal those of the traced passes. Also asserts that both runs verify
(fail_rate 0), that another seed changes the simulated times, and that it
leaves the wire traffic alone: the seed skews rank arrival but keeps every
message at its nominal size, so the message, byte and rendezvous counts
must not depend on it, and on payload_verify they must equal the counts
worked out from the nominal sizes.

    python3 perfbench/test_bench.py
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SEED = 7
IDENTICAL = ["sim_us", "digest", "sim.events", "fabric.flows",
             "simmpi.net_bytes"]
# payload_verify at its tiny shape: preset A (16 KB rendezvous threshold),
# 2 nodes x 4 ranks. DPML l=4 gives each leader a quarter of the message,
# sent once to the other node: per call, allreduce moves 8 shares and reduce
# 4 (to the root node), over 4 calls per point. The shares are 1, 4, 16 and
# 64 KB; the 16 and 64 KB ones go rendezvous. SHArP points send no messages.
NOMINAL = {
    "payload_verify": {
        "simmpi.rndv_handshakes": (8 + 4) * 4 * 2,
        "simmpi.net_bytes": (8 + 4) * 4 * (1 + 4 + 16 + 64) * 1024,
    },
}
SEED_INVARIANT = ["simmpi.net_messages", "simmpi.net_bytes",
                  "simmpi.rndv_handshakes", "simmpi.shm_bytes",
                  "simmpi.reduce_bytes"]


def parse(lines):
    """Report lines -> {name: value} over digest, metric and layer lines."""
    out = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] == "digest":
            out["digest"] = parts[1]
        elif parts[0] in ("metric", "layer"):
            out[parts[1]] = float(parts[2])
    return out


def main():
    exe = bench.build()
    failures = []
    for workload in bench.WORKLOADS:
        runs = {}
        for trace in (0, 1):
            runs[trace] = parse(bench.run(exe, workload, SEED, 1, trace,
                                          tiny=True))
        other = parse(bench.run(exe, workload, SEED + 1, 1, 0, tiny=True))
        for trace, r in runs.items():
            if r["fail_rate"] != 0:
                failures.append(f"{workload} trace={trace}: fail_rate "
                                f"{r['fail_rate']}")
        for key in IDENTICAL:
            if runs[0][key] != runs[1][key]:
                failures.append(f"{workload}: {key} untraced {runs[0][key]} "
                                f"!= traced {runs[1][key]}")
        if other["sim_us"] == runs[0]["sim_us"]:
            failures.append(f"{workload}: seed {SEED + 1} gave the same "
                            f"sim_us as seed {SEED}")
        for key in SEED_INVARIANT:
            if other[key] != runs[0][key]:
                failures.append(f"{workload}: {key} seed {SEED} "
                                f"{runs[0][key]} != seed {SEED + 1} "
                                f"{other[key]}")
        for key, want in NOMINAL.get(workload, {}).items():
            if runs[0][key] != want:
                failures.append(f"{workload}: {key} {runs[0][key]} != "
                                f"{want} from the nominal sizes")
        print(f"{workload}: sim_us {runs[0]['sim_us']} digest "
              f"{runs[0]['digest']} events {runs[0]['sim.events']}")
    for f in failures:
        print("FAIL", f)
    print("ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
