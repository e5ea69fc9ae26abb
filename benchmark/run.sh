#!/usr/bin/env bash
# Driver entry point: build the benchmark from source into .bench_build at the
# root of the checkout (Go's build cache and temp files are kept there too, so
# nothing is written outside the checkout), then run it with the arguments
# given. Results, traces and the graph databases go under benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOWORK=off
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
export MSSG_BENCH_OUT="${MSSG_BENCH_OUT:-$here/out}"
# go build is a no-op when the binary is already up to date.
(cd "$here" && go build -o "$build/mssg-benchmark" .)
exec "$build/mssg-benchmark" "$@"
