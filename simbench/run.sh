#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it. Run from the root
# of the repository:
#
#   bash simbench/run.sh --workload tables --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temporary
# checkpoint stores, span traces) stays under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
go -C "$root/simbench" build -o "$build/simbench" .
exec "$build/simbench" "$@"
