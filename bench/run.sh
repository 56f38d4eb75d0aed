#!/usr/bin/env bash
# Builds the harness from source and runs it. Everything the toolchain and
# the harness write stays inside the checkout: the Go build cache, temp
# files, the binary and the data dirs under .bench_build, spans under
# bench/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local
(cd "$root" && go build -o "$build/litmus-bench" ./bench)
exec "$build/litmus-bench" -tmp "$build/tmp" -out "$here/out" -benchmark "$root/BENCHMARK.json" "$@"
