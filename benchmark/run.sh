#!/usr/bin/env bash
# Builds the write-path benchmark from the sources of this checkout and runs
# it. Run from the root of the checkout:
#
#   bash benchmark/run.sh --workload churn-durable --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# (Go build cache, binary, data directories, results, traces).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f benchmark/go.mod ] || [ ! -d internal/director ]; then
	echo "benchmark: run from the root of a dvecap checkout" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd benchmark && go build -o "$out/dvebench" .)
exec "$out/dvebench" "$@"
