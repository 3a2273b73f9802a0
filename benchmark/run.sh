#!/usr/bin/env bash
# Builds the benchmark from the checkout's own source and runs it with
# the arguments given:
#
#   bash benchmark/run.sh --workload check_large --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) goes under .bench_build in the checkout, so a run reads and
# writes nothing outside it; the first run in a checkout therefore
# compiles the standard library too. Without the repository's go.mod
# and packages the build fails and so does this script.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
