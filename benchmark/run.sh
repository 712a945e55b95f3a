#!/usr/bin/env bash
# The repository benchmark's one command. It builds benchmark/ (a CMake
# project of its own, RelWithDebInfo, into build-bench/) and then either
# runs one workload in this process or, without --workload, runs the whole
# suite through suite.py.
#
#   benchmark/run.sh --workload NAME --seed S --seconds T --trace 0|1
#   benchmark/run.sh [--seed S] [--seconds T] [--trace] [--trace-out PATH]
#                    [--quick] [--repeat K] [--out PATH]
#
# Build output goes to standard error, so the last line of standard output
# stays the result. See README.md for the workloads and metrics.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/build-bench"

jobs="$(nproc 2>/dev/null || echo 1)"
if (( jobs > 4 )); then jobs=4; fi

{
  if [[ ! -f "$build/Makefile" ]]; then
    cmake -S "$here" -B "$build"
  fi
  cmake --build "$build" --target ooc_benchmark -j "$jobs"
} >&2

# Provenance: the commit measured, marked -dirty when the tree differs.
commit=unknown
if git -C "$root" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  commit="$(git -C "$root" rev-parse HEAD)"
  if [[ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]]; then
    commit="$commit-dirty"
  fi
fi
export OOC_BENCH_COMMIT="$commit"

for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$build/ooc_benchmark" "$@"
  fi
done
exec python3 "$here/suite.py" --binary "$build/ooc_benchmark" \
  --root "$root" "$@"
