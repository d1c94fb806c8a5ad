#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run it:
#   bash vvbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to .bench_build/ and stderr; temporary files go to
# .bench_tmp/, so nothing is written outside the checkout (the dune cache
# is off).
set -eu
cd "$(dirname "$0")/.."
mkdir -p .bench_tmp
export TMPDIR="$PWD/.bench_tmp"
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --display quiet ./vvbench/main.exe >&2
exec .bench_build/default/vvbench/main.exe "$@"
