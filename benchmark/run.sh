#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it is
# started from, and runs it with the arguments given. Everything the build
# and the run write (build cache, binary, temp dirs, trace dumps) stays
# under .bench_build/. Run it from the root of the checkout:
#
#   bash benchmark/run.sh --workload yahoo-combine --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off

# The build cache makes this a no-op after the first build of a checkout.
(cd "$here" && go build -o "$build/drizzle-benchmark" .)
exec "$build/drizzle-benchmark" "$@"
