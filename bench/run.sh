#!/usr/bin/env bash
# Build the benchmark from source and run it. BENCHMARK.json's command;
# the driver appends --workload, --seed, --seconds and --trace.
#
# Everything the build writes stays in the checkout: the Go build cache
# and the binary go under .bench_build/, next to where the driver points
# cargo. The first run in a checkout compiles the standard library into
# that cache; later runs find it there.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
(cd "$here" && go build -o "$build/iqpbench" .)
cd "$root"
exec "$build/iqpbench" "$@"
