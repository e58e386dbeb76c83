#!/usr/bin/env bash
# Benchmark entry point. Builds the hispar CLI and the hispar_bench
# driver from this checkout's sources, then runs the driver with the
# arguments given, e.g. from the root of the repository:
#
#   bash e2e_bench/run.sh --workload h1k-cold --seed 1 --seconds 20 --trace 0
#   bash e2e_bench/run.sh --workload all --runs 10 --out .bench_build/results.json
#
# The build goes to $CARGO_TARGET_DIR, or .bench_build when it is unset;
# build output goes to stderr so stdout carries only the driver's report.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
jobs="$(nproc)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi
# Compiler temporaries stay inside the build directory too.
mkdir -p "$build/tmp"
TMPDIR="$(cd "$build/tmp" && pwd)"
export TMPDIR

cmake -S "$here" -B "$build" >&2
cmake --build "$build" --target hispar hispar_bench -j "$jobs" >&2
exec "$build/hispar_bench" "$@"
