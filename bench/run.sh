#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from the root of a checkout: bash bench/run.sh --workload NAME ...
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build (listed in .gitignore): the Go build cache, the binary, and
# the scratch directory for inputs, spill trees, snapshots and layers-*.jsonl.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp" "$build/scratch"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C "$here" build -o "$build/hhbench" .
exec "$build/hhbench" -scratch "$build/scratch" "$@"
