#!/usr/bin/env bash
# Builds the benchmark from the checkout that holds this directory and
# runs it from the checkout root. Every flag passes through, e.g.
#
#   bash perfbench/run.sh --workload wild-distinct --seed 1 --seconds 20 --trace 0
#
# The Go build cache and the binary live in .bench_build/ at the
# checkout root, so nothing is written outside the checkout. Outside a
# full checkout (no ../go.mod) the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" -root "$root" "$@"
