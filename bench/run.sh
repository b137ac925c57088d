#!/usr/bin/env bash
# Build the benchmark from source and run it with the given arguments.
#
# This is the command BENCHMARK.json names. Everything the build leaves
# behind (compiler cache, temporaries, the binary) goes under .bench_build/
# in the checkout, so a run reads and writes nothing outside it and needs no
# $HOME. The first build in a fresh checkout compiles the standard library
# too; later ones are a cache hit and an up-to-date check.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

go build -o "$build/rsabench" ./bench
exec "$build/rsabench" "$@"
