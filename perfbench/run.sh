#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot-read-3a --seed 42 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build in the current
# directory; the toolchain is the local one and nothing is downloaded.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=

go -C "$(dirname "$0")" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
