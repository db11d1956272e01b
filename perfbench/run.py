#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--negative-control]

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset; later calls
only rebuild what changed. Build output goes to stderr. The benchmark
binary's stdout is passed through; its last line is the JSON result.
The exit code is the binary's: 0 only if every check passed.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within this many seconds, build excluded.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found at %s"
             % os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count())],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def main():
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    try:
        proc = subprocess.run([binary] + sys.argv[1:] + ["--out", out],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with %d" % proc.returncode,
             proc.returncode or 1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
