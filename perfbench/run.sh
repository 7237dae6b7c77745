#!/usr/bin/env bash
# Builds the host-performance benchmark from the checkout's own sources
# and runs it. Run from the repository root; arguments pass through:
#
#   bash perfbench/run.sh --workload sync-pool --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory, the Go build cache included.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
