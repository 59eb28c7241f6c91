#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given — the command BENCHMARK.json names. Everything a
# build or a run writes (Go build cache included) stays under
# benchmark/out/ in the checkout.
#
#   bash benchmark/run.sh --workload share-accept --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh                 # every workload, one table
#   bash benchmark/run.sh -trace 1        # … and again traced, 10 s windows
#   bash benchmark/run.sh -repeat 2       # run-to-run agreement self-check
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/benchmark/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off 

# The environment block names the commit when the checkout is a git
# repository; the build itself never depends on one.
BENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$BENCH_COMMIT" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	BENCH_COMMIT="$BENCH_COMMIT (modified tree)"
fi
export BENCH_COMMIT

# Always rebuild: the program under test is linked into this binary, so
# a change anywhere in the repo must reach the next run. A warm cache
# makes this a fraction of a second.
(cd benchmark && go build -buildvcs=false -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
