#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given. Everything the build writes, the Go build cache included, goes to
# .bench_build beside BENCHMARK.json, so a run touches nothing outside the
# checkout and needs no writable home directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
go -C "$here" build -o "$build/mmobench" .
exec "$build/mmobench" "$@"
