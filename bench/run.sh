#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the Go toolchain writes (build cache, temp files, binary)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/simbench" .
exec "$build/simbench" "$@"
