#!/usr/bin/env python3
"""Run every pinned simctl cell and compare its stats with its golden.

Usage:
    check_goldens.py [--simctl PATH] [--out DIR] [CELL ...]

Each cell in CELLS names a golden StatSet dump under ci/, the simctl
arguments that reproduce it, and why the cell is pinned. The runner
runs simctl with those arguments plus ``--stats-json DIR/<cell>.json``
and compares the dump with the golden through tools/compare_stats.py
under ci/stats_tolerances.json. Naming cells runs only those; with no
names, every cell runs. Exit status: 0 when every cell matches its
golden, 1 when a cell differs or its run fails, 2 on usage errors.
"""

import argparse
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOLERANCES = os.path.join(ROOT, "ci", "stats_tolerances.json")
COMPARE = os.path.join(ROOT, "tools", "compare_stats.py")

RESNET_4G = "--model resnet152 --batch 24576 --gpu-mib 4096 --host-mib 65536"

# (cell, golden file under ci/, simctl arguments, why it is pinned)
CELLS = [
    ("bert30", "golden_stats.json",
     "--model bert-base --batch 30 --iters 8 --warmup 2 --ledger",
     "the canonical ledger run: bert-base/30 under DeepUM at 256 MiB"),
    ("resnet4g", "golden_stats_resnet4g.json", RESNET_4G + " --ledger",
     "1.89x oversubscribed: the demand-fault victim fallback and "
     "pre-eviction polls that find every resident block protected"),
    ("um", "golden_stats_um.json",
     "--model bert-base --batch 30 --iters 8 --warmup 2 --ledger "
     "--system um",
     "naive UM: the driver's own fault-batch preprocess, no DeepUM"),
    ("dlrm", "golden_stats_dlrm.json",
     "--model dlrm --gpu-mib 48 --ledger",
     "irregular embedding gathers: the only cell that draws the "
     "sim/rng.hh stream"),
    ("v100", "golden_stats_v100.json",
     "--model bert-base --batch 4520 --gpu-mib 32768 --host-mib 131072 "
     "--ledger",
     "the paper's 32 GiB V100 scale: LRU relabels and pin churn at "
     "~16k UM blocks"),
    ("gpt2l", "golden_stats_gpt2l.json", "--model gpt2-l --ledger",
     "a hard chain walk: about 920k candidates over 3,662 restarts"),
    ("mobilenet", "golden_stats_mobilenet.json",
     "--model mobilenet --batch 5120 --ledger",
     "protection bookkeeping and the fresh-way sweep on a CNN"),
    ("dcgan", "golden_stats_dcgan.json",
     "--model dcgan --batch 3584 --ledger",
     "protection bookkeeping and the fresh-way sweep on a GAN"),
    ("resnet4g_la2", "golden_stats_resnet4g_la2.json",
     RESNET_4G + " --lookahead 2 --ledger",
     "chain pause and resume: about 5,900 pauses at lookahead 2"),
    ("dcgan6144", "golden_stats_dcgan6144.json",
     "--model dcgan --batch 6144 --ledger",
     "the oversubscribed DCGAN cell"),
]


def check(simctl, out, cell, golden, args, why):
    """Run one cell and compare it; return True if it matches."""
    dump = os.path.join(out, cell + ".json")
    print("== %s: %s\n   simctl %s" % (cell, why, args), flush=True)
    run = subprocess.run([simctl] + args.split() + ["--stats-json", dump],
                         stdout=subprocess.DEVNULL)
    if run.returncode != 0:
        print("   simctl failed (exit %d)" % run.returncode)
        return False
    cmp = subprocess.run([sys.executable, COMPARE,
                          os.path.join(ROOT, "ci", golden), dump,
                          "--tolerances", TOLERANCES])
    return cmp.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--simctl", default=os.path.join(
        ROOT, "build", "examples", "simctl"))
    ap.add_argument("--out", help="keep the dumps here (default: a "
                    "temporary directory)")
    ap.add_argument("cells", nargs="*", metavar="CELL",
                    help="run only these cells: " +
                    ", ".join(c[0] for c in CELLS))
    args = ap.parse_args()
    unknown = set(args.cells) - {c[0] for c in CELLS}
    if unknown:
        ap.error("unknown cell(s): " + ", ".join(sorted(unknown)))
    cells = [c for c in CELLS if not args.cells or c[0] in args.cells]
    if not (os.path.isfile(args.simctl) and os.access(args.simctl, os.X_OK)):
        print("check_goldens: --simctl %s is not an executable file"
              % args.simctl, file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or tmp
        os.makedirs(out, exist_ok=True)
        failed = [c[0] for c in cells if not check(args.simctl, out, *c)]
    if failed:
        print("check_goldens: %d of %d cell(s) differ: %s" % (
            len(failed), len(cells), ", ".join(failed)))
        return 1
    print("check_goldens: %d cell(s) match their goldens" % len(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
