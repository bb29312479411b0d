#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#   bash bench/run.sh --workload cc-uniform --seed 1 --seconds 10 --trace 0
# Run from the root of a checkout. Everything the Go toolchain writes —
# build cache, module cache, its own configuration — stays in .bench_build/
# inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd bench && go build -o "$build/dmpc-bench" .)
exec "$build/dmpc-bench" "$@"
