#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark into
# .bench_build/ of the checkout (Go build cache included, so nothing is
# written outside the checkout) and runs it with the given arguments.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
export GOCACHE="$root/.bench_build/gocache"
export GOFLAGS=-buildvcs=false
mkdir -p "$root/.bench_build/bin"
(cd "$here" && go build -o "$root/.bench_build/bin/bench" .)
cd "$root"
exec "$root/.bench_build/bin/bench" "$@"
