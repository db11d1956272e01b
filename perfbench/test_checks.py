#!/usr/bin/env python3
"""Negative control for the benchmark's correctness checks.

    python3 perfbench/test_checks.py

For each workload whose at-rest parity is checked, run the benchmark
once clean and once with --negative-control, which flips one byte of
an NVM media line through NvmArray::rawWrite before verification. The
clean run must pass every check; the corrupted run must report
"correct": false with at least one failed check and exit non-zero.
Exits 0 when both hold for every workload.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ["stream-tvarak-cold", "redis-degraded"]


def run(workload, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def main():
    ok = True
    for w in WORKLOADS:
        code, clean = run(w)
        clean_ok = code == 0 and clean["correct"] and clean["failed"] == 0
        code, bad = run(w, "--negative-control")
        fired = code != 0 and not bad["correct"] and bad["failed"] > 0
        print("%-20s clean %s, corrupted %s (%d/%d checks failed)"
              % (w, "pass" if clean_ok else "FAIL",
                 "caught" if fired else "MISSED", bad["failed"],
                 bad["attempted"]))
        ok = ok and clean_ok and fired
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
