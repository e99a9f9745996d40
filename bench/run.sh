#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (binary and Go caches alike, so nothing is written outside it) and
# runs it with the arguments given. It fails when the program the benchmark
# measures is absent: bench/ compiles against the module one directory up.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
# The go command keeps its settings and telemetry counters under the user's
# configuration directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"

(cd "$here" && go build -o "$build/hydra-bench" .)
cd "$root" # results go to bench/out, -check reads BENCHMARK.json, both from here
exec "$build/hydra-bench" "$@"
