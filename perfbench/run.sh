#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the given arguments. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload runtime --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (Go's build cache included) stays under
# .bench_build in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -trimpath -o "$build/perfbench" .
exec "$build/perfbench" "$@"
