#!/usr/bin/env bash
# Rebuilds everything, runs the full test suite and regenerates every
# experiment table in EXPERIMENTS.md: every bench plus the E20, E22 and E24
# composition matrices, run by scripts/bench.sh (JSON in bench-results/).
# All runs are seeded and deterministic: outputs are identical across
# invocations on one platform, apart from the wall-clock timing columns.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure 2>&1 | tee test_output.txt
scripts/bench.sh 2>&1 | tee bench_output.txt
