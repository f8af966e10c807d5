#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# flags, from the root of a checkout:
#
#   bash bench/run.sh --workload fleet-1024 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the checkout: the Go
# build cache, the toolchain's config and the binary in .bench_build/,
# results and traces in .bench_out/ (or -out).
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export PPROF_TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C bench build -o "$build/flashbench" .
exec "$build/flashbench" "$@"
