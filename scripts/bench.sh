#!/usr/bin/env bash
# Run a repo benchmark and emit its JSON result file.
#
# Usage: scripts/bench.sh [parallel|kernels|train|flow|serve|all] [flags]
#   scripts/bench.sh                      # parallel bench (default)
#   scripts/bench.sh parallel --threads=1,2,4 --layer=3
#   scripts/bench.sh kernels
#   scripts/bench.sh train --design=c432 --epochs=3
#   scripts/bench.sh flow --designs=c432,b13 --threads=1,2,4
#   scripts/bench.sh serve --design=c432 --widths=1,4,16,64
#   scripts/bench.sh all                  # all five, default flags only
#
# Each bench prints human-readable progress on stderr and exactly one
# JSON object on stdout; exit status is non-zero if its self-check fails
# (bench_parallel: determinism across thread counts; bench_train: zero
# steady-state arena allocations; bench_flow: byte-identical layouts
# across thread counts; bench_serve: bit-identity between batched widths
# and batch-1, zero steady-state arena allocations). bench_kernels only
# times; test_kernels gates its kernels' bit-identity.
set -euo pipefail

cd "$(dirname "$0")/.."

which="${1:-parallel}"
case "$which" in
  parallel|kernels|train|flow|serve|all) shift || true ;;
  *) which=parallel ;;  # no subcommand: all args go to bench_parallel
esac

if [ ! -d build ]; then
  cmake -B build -S . >&2
fi

run_one() {
  local name="$1"
  shift
  # Always (re)build — incremental and cheap, and it prevents silently
  # benchmarking a stale binary after source changes.
  cmake --build build -j --target "bench_${name}" >&2
  "build/bench_${name}" "$@" > "BENCH_${name}.json"
  echo "wrote BENCH_${name}.json:" >&2
  cat "BENCH_${name}.json"
}

case "$which" in
  parallel) run_one parallel "$@" ;;
  kernels)  run_one kernels "$@" ;;
  train)    run_one train "$@" ;;
  flow)     run_one flow "$@" ;;
  serve)    run_one serve "$@" ;;
  all)
    # The benches take different flags, so `all` runs each with defaults
    # rather than forwarding one bench's flags to the others.
    if [ "$#" -gt 0 ]; then
      echo "bench.sh all takes no extra flags (run each bench separately)" >&2
      exit 2
    fi
    run_one parallel
    run_one kernels
    run_one train
    run_one flow
    run_one serve
    ;;
esac
