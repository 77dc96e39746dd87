#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload tcp_small --seed 1 --seconds 28 --trace 0
#
# The build cache and the binary live under .bench_build/, so nothing is
# written outside the checkout; after the first invocation the build is an
# up-to-date check. `go run ./benchmark <args>` is the same program without
# that guarantee.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOFLAGS="${GOFLAGS:-} -buildvcs=false"
export GOTOOLCHAIN=local

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
