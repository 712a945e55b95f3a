#!/usr/bin/env bash
# Bench suite smoke: builds and runs every experiment binary and the three
# composition matrices, writing their JSON under --out: one
# BENCH_<name>.json per bench (schema ooc.bench.v1, ooc.svc.v1 for
# bench_svc; bench_template_overhead emits google-benchmark's schema since
# wall-clock timings have no reproducible form) and one ooc.matrix.v2 file
# per matrix (BENCH_matrix.json, BENCH_fd_matrix.json, BENCH_roundless.json).
# Exits nonzero if any bench or matrix reported a correctness violation.
# Nothing outside --out and build/ is written; the record of performance
# over commits is benchmark/ (see BENCHMARK.json).
#
#   scripts/bench.sh                    # full trial counts, bench-results/
#   scripts/bench.sh --quick            # reduced trials (CI smoke mode)
#   scripts/bench.sh --out results/     # choose the output directory
#   scripts/bench.sh --no-json          # console tables only
#   scripts/bench.sh --jobs 4           # run up to 4 bench binaries at once
#   scripts/bench.sh --threads 8        # per-bench trial-sweep workers
#
# --jobs runs whole binaries concurrently (each to its own log, replayed in
# canonical order afterwards); --threads fans each binary's trials across
# the in-process experiment scheduler. Results are byte-identical either
# way — only the quarantined `sweep` telemetry block moves.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=""
OUT="bench-results"
JSON=1
JOBS=1
THREADS=""
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) QUICK="--quick" ;;
    --out) OUT="$2"; shift ;;
    --no-json) JSON=0 ;;
    --jobs) JOBS="$2"; shift ;;
    --threads) THREADS="$2"; shift ;;
    -h|--help)
      sed -n '2,22p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *) echo "bench.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done
case "$JOBS" in (''|*[!0-9]*|0) echo "bench.sh: --jobs wants a positive integer" >&2; exit 2 ;; esac

BENCHES="
bench_benor_rounds
bench_benor_faults
bench_phaseking
bench_raft
bench_raft_decomposition
bench_vac_from_ac
bench_ac_insufficiency
bench_reconciliators
bench_shmem
bench_decentralized
bench_byzantine_benor
bench_fd
bench_royal_family
bench_replicated_log
bench_paxos
bench_recovery
bench_svc
bench_template_overhead
bench_simcore
"

cmake -B build -S . >/dev/null
# shellcheck disable=SC2086  # word-splitting the target list is intended
cmake --build build -j --target $BENCHES >/dev/null

mkdir -p "$OUT"

# Phase 1: run the binaries, up to $JOBS at a time. Each bench writes its
# console output to a log and its exit code to a status file so phase 2 can
# replay everything in canonical order regardless of completion order.
inflight=0
for bench in $BENCHES; do
  name="${bench#bench_}"
  json_flag=""
  json_path="$OUT/BENCH_${name}.json"
  [ "$JSON" = 1 ] && json_flag="--json $json_path"
  threads_flag=""
  # bench_template_overhead is the google-benchmark harness; it has no
  # trial sweep and no --threads flag.
  [ -n "$THREADS" ] && [ "$bench" != "bench_template_overhead" ] && \
    threads_flag="--threads $THREADS"
  # shellcheck disable=SC2086  # flags are intentionally word-split
  (
    set +e
    "build/bench/$bench" $QUICK $threads_flag $json_flag \
      > "$OUT/.${bench}.log" 2>&1
    echo $? > "$OUT/.${bench}.status"
  ) &
  inflight=$((inflight + 1))
  if [ "$inflight" -ge "$JOBS" ]; then
    wait -n 2>/dev/null || wait
    inflight=$((inflight - 1))
  fi
done
wait

# Phase 2: replay logs in canonical order and collect verdicts. Identical
# output to a sequential run.
failures=0
for bench in $BENCHES; do
  echo "## $bench $QUICK"
  cat "$OUT/.${bench}.log"
  status=$(cat "$OUT/.${bench}.status")
  rm -f "$OUT/.${bench}.log" "$OUT/.${bench}.status"
  if [ "$status" -ne 0 ]; then
    failures=$((failures + 1))
    echo "!! $bench exited $status" >&2
  fi
done

# The composition matrices, one ooc.matrix.v2 file each next to the bench
# JSON: E20 (every registered detector × driver pairing), E22 (oracle
# quality × crash schedule for the oracle-consuming drivers) and E24
# (engine × round-scheduling policy, DESIGN.md §14). Every cell either runs
# clean — agreement, validity, the object audits, the FD axioms with an
# oracle attached, zero overlaps and deferrals under lockstep — or is
# rejected with the registry's diagnostic; a violation fails the script,
# same as a bench verdict.
cmake --build build -j --target compose >/dev/null
threads_flag=""
[ -n "$THREADS" ] && threads_flag="--threads $THREADS"
for entry in e20:matrix e22:fd_matrix e24:roundless; do
  matrix="${entry%%:*}"
  echo "## compose --matrix $matrix $QUICK"
  matrix_flag=""
  [ "$JSON" = 1 ] && matrix_flag="--json $OUT/BENCH_${entry#*:}.json"
  status=0
  # shellcheck disable=SC2086  # flags are intentionally word-split
  build/tools/compose --matrix "$matrix" $QUICK $threads_flag $matrix_flag || status=$?
  if [ "$status" -ne 0 ]; then
    failures=$((failures + 1))
    echo "!! compose --matrix $matrix exited $status" >&2
  fi
done

[ "$JSON" = 1 ] && echo "wrote $(ls "$OUT" | wc -l) files to $OUT/"

if [ "$failures" -ne 0 ]; then
  echo "FAIL: $failures bench(es) reported violations" >&2
  exit 1
fi
echo "OK: all benches clean"
