#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload guard-continuous --seed 7 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Build products, the Go build cache
# and the traced run's outputs all stay under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
