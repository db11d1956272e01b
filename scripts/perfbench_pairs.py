#!/usr/bin/env python3
"""Run alternating parent/change perfbench pairs and append the result
to BENCH_perfbench.json.

    python3 scripts/perfbench_pairs.py --parent DIR --change DIR \\
        --workload stream-tvarak-cold=15 --workload ctree-txb-object=35 \\
        --pairs 10 --desc "what the change does" \\
        [--claim WORKLOAD:METRIC] [--parent-rev REV] [--raw FILE] \\
        [--out BENCH_perfbench.json]

--parent and --change are two source trees (a clone or an archive of
each commit). Each builds perfbench into its own .bench_build, so
CARGO_TARGET_DIR is cleared for the runs. Pair N runs both sides with
--seed N --trace 0; the side that runs first alternates between pairs
(perfbench/README.md, "Host noise"). A workload's seconds default to
--seconds.

For every workload the entry holds, per side, the median and IQR of
the end-to-end metrics that BENCHMARK.json lists and of hop_ns, the
counts_digest of every seed, the worst check_fail_frac and whether
every run was correct, plus how many pairs the change won per metric.
A claim is met when the change wins at least nine pairs in ten and
its median beats the parent's by more than the parent's IQR.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("nproc", "cpu", "kernel", "compiler", "build_type", "ndebug",
             "scale")


def run_side(tree, workload, seed, seconds):
    """One perfbench run in @p tree; returns (meta, result) dicts."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # one build dir per tree
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit("perfbench_pairs: no result from %s (%s seed %d), exit %d"
                 % (tree, workload, seed, proc.returncode))
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs, metrics):
    """Median/IQR per metric over one side's runs, plus checks."""
    out = {}
    for name in metrics + ["hop_ns"]:
        vals = [r[name] for r in runs]
        q1, q3 = quartiles(vals)
        out[name] = {"median": round(statistics.median(vals), 6),
                     "iqr": round(q3 - q1, 6)}
    out["counts_digest"] = {str(r["seed"]): r["counts_digest"]
                            for r in runs}
    out["check_fail_frac"] = max(r["check_fail_frac"] for r in runs)
    out["correct"] = all(r["correct"] for r in runs)
    return out


def flatten(seed, meta, result):
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row.update(seed=seed, hop_ns=meta["hop_ns"],
               counts_digest=meta["counts_digest"],
               check_fail_frac=meta["check_fail_frac"],
               correct=result["correct"])
    return row


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", action="append", required=True,
                    metavar="NAME[=SECONDS]")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--desc", required=True)
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--parent-rev")
    ap.add_argument("--raw", help="also write every run as JSON lines")
    ap.add_argument("--out", default=os.path.join(ROOT,
                                                  "BENCH_perfbench.json"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    metrics = list(directions)
    rev = args.parent_rev or subprocess.run(
        ["git", "-C", args.parent, "rev-parse", "--short", "HEAD"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True).stdout.strip() or "unknown"

    raw = open(args.raw, "w") if args.raw else None
    host = None
    workloads = {}
    for spec in args.workload:
        name, _, secs = spec.partition("=")
        seconds = float(secs) if secs else args.seconds
        seconds = int(seconds) if seconds == int(seconds) else seconds
        sides = {"parent": [], "change": []}
        wins = {m: 0 for m in metrics}
        for seed in range(1, args.pairs + 1):
            order = ["parent", "change"] if seed % 2 else ["change",
                                                           "parent"]
            rows = {}
            for side in order:
                tree = args.parent if side == "parent" else args.change
                meta, result = run_side(tree, name, seed, seconds)
                rows[side] = flatten(seed, meta, result)
                sides[side].append(rows[side])
                if side == "change" and host is None:
                    host = {k: meta[k] for k in HOST_KEYS}
                if raw:
                    raw.write(json.dumps(dict(rows[side], side=side,
                                              workload=name)) + "\n")
                    raw.flush()
            for m in metrics:
                wins[m] += better(rows["change"][m], rows["parent"][m],
                                  directions[m])
            print("%s pair %d: setup_s %.3f -> %.3f" % (
                name, seed, rows["parent"]["setup_s"],
                rows["change"]["setup_s"]), file=sys.stderr)
        workloads[name] = {
            "pairs": args.pairs,
            "seconds": seconds,
            "parent": summarize(sides["parent"], metrics),
            "change": summarize(sides["change"], metrics),
            "change_better_pairs": wins,
        }
    if raw:
        raw.close()

    entry = {
        "change": args.desc,
        "parent": rev,
        "command": "python3 perfbench/run.py --workload W --seed N "
                   "--seconds S --trace 0 (pair N runs both sides at seed "
                   "N; the side that runs first alternates)",
        "host": host,
    }
    if args.claim:
        wl, metric = args.claim.split(":")
        w = workloads[wl]
        p, c = w["parent"][metric], w["change"][metric]
        beyond = better(c["median"], p["median"], directions[metric]) and \
            abs(c["median"] - p["median"]) > p["iqr"]
        needed = math.ceil(0.9 * args.pairs)
        entry["claim"] = {"workload": wl, "metric": metric,
                          "met": w["change_better_pairs"][metric] >= needed
                          and beyond}
    entry["workloads"] = workloads

    with open(args.out) as f:
        doc = json.load(f)
    doc["entries"].append(entry)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(json.dumps(entry.get("claim", {})))


if __name__ == "__main__":
    main()
