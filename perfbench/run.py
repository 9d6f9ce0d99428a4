#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run of one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload bert-v100-deepum --seed 1 \
        --seconds 45 --trace 0

builds perfbench/ (which compiles the simulator from ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset, then runs the benchmark binary. Its last stdout line is the
result: {"correct", "attempted", "failed", "metrics"}. Build output
goes to stderr.

    python3 perfbench/run.py --all [--seconds 45] [--seed 1] [--out F]

runs every workload with tracing off and on, prints every metric by
name with its unit, the dominant layer per workload and the
paper-facing DeepUM-vs-UM line, and optionally writes the records as
JSON to F.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bert-v100-deepum", "resnet-4g-deepum", "bert-v100-um"]

# A run measures for --seconds; this bounds one binary invocation so
# a wedged run fails instead of hanging the caller.
RUN_TIMEOUT_S = 170

# Paper references (EXPERIMENTS.md): DeepUM cuts faults to <0.1-1.8%
# of UM's on regular models, and is 3.06x faster than UM (gmean).
PAPER_FAULT_SHARE = "<0.1-1.8%"
PAPER_SPEEDUP = "3.06x gmean"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure (once) and build; exit non-zero on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    os.makedirs(os.path.join(bdir, "stats"), exist_ok=True)
    return bdir


def run_one(bdir, workload, seed, seconds, trace):
    """Run the binary once; return (stdout lines, info, result)."""
    cmd = [os.path.join(bdir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--stats-dir",
           os.path.join(bdir, "stats")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out" % workload)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.stderr.write(p.stdout)
        sys.exit("perfbench: %s failed (exit %d)" % (workload, p.returncode))
    return lines, json.loads(lines[-2])["info"], json.loads(lines[-1])


def fmt(metric):
    return "%.6g %s" % (metric["value"], metric["unit"])


def run_all(bdir, seed, seconds, out):
    records = []
    for w in WORKLOADS:
        _, info0, e2e = run_one(bdir, w, seed, seconds, 0)
        _, info1, layers = run_one(bdir, w, seed, seconds, 1)
        records.append({"workload": w, "info": info0,
                        "layer_info": info1, "end_to_end": e2e,
                        "per_layer": layers})

    failed = attempted = 0
    for r in records:
        info = r["info"]
        failed += r["end_to_end"]["failed"] + r["per_layer"]["failed"]
        attempted += r["end_to_end"]["attempted"] + \
            r["per_layer"]["attempted"]
        print("== %s: %s batch %d, %d MiB GPU, %s" % (
            r["workload"], info["model"], info["batch"], info["gpu_mib"],
            info["system"]))
        print("   why: " + info["why"])
        print("   host_cores=%d compiler=%s build_type=%s" % (
            info["host_cores"], info["compiler"], info["build_type"]))
        for part in ("end_to_end", "per_layer"):
            res = r[part]
            print("   %s: correct=%s attempted=%d failed=%d" % (
                part, res["correct"], res["attempted"], res["failed"]))
            for name, m in res["metrics"].items():
                print("     %-32s %s" % (name, fmt(m)))
        for name, m in info["figures"].items():
            print("     %-32s %s" % (name, fmt(m)))
        print("   dominant layer (largest self time): %s" %
              r["layer_info"]["dominant_layer"])
    print("fail_ratio (all runs): %.6g ratio" % (failed / attempted))

    by = {r["workload"]: r["end_to_end"]["metrics"] for r in records}
    dum, um = by["bert-v100-deepum"], by["bert-v100-um"]
    share = dum["sim_faults_per_iter"]["value"] / \
        um["sim_faults_per_iter"]["value"]
    speedup = um["sim_s_per_100iter"]["value"] / \
        dum["sim_s_per_100iter"]["value"]
    print("paper check (bert-base, 32 GiB; informational, not gated): "
          "DeepUM faults = %.2f%% of UM's (paper: %s on regular models); "
          "simulated speedup over UM = %.2fx (paper: %s). The model is "
          "not validated against V100 hardware." % (
              100 * share, PAPER_FAULT_SHARE, speedup, PAPER_SPEEDUP))
    if out:
        with open(out, "w") as f:
            json.dump({"seed": seed, "seconds": seconds,
                       "fail_ratio": failed / attempted,
                       "deepum_fault_share_of_um": share,
                       "deepum_speedup_over_um": speedup,
                       "records": records}, f, indent=1)
            f.write("\n")
    return 0 if failed == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, traced and untraced")
    ap.add_argument("--out", help="with --all: write the records here")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (args.all or args.selftest or args.workload):
        ap.error("one of --workload, --all or --selftest is required")
    bdir = build()
    if args.selftest:
        return subprocess.run([os.path.join(bdir, "perfbench_test")],
                              timeout=RUN_TIMEOUT_S).returncode
    if args.all:
        return run_all(bdir, args.seed, args.seconds, args.out)
    lines, _, _ = run_one(bdir, args.workload, args.seed, args.seconds,
                          args.trace)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
