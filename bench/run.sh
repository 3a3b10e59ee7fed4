#!/usr/bin/env bash
# Entry point for the benchmark driver (BENCHMARK.json "command"), run
# from the repository root. It keeps everything the Go toolchain writes
# inside the checkout (.bench_build/), builds the benchmark from source
# and hands its arguments over. By hand, `go -C bench run . [flags]`
# does the same with your own build cache.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local
go -C "$root/bench" build -o "$root/.bench_build/bench" .
cd "$root"
exec "$root/.bench_build/bench" "$@"
