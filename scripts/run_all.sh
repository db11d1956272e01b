#!/bin/bash
# Build, test, and regenerate every paper table/figure. Any failing
# step (a test, or one bench binary) fails the script.
set -eo pipefail
cd "$(dirname "$0")/.."
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
for b in build/bench/bench_*; do
    if [ -f "$b" ] && [ -x "$b" ]; then "$b"; fi
done 2>&1 | tee bench_output.txt
scripts/plot_results.py bench_output.txt || true
