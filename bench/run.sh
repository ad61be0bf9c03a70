#!/usr/bin/env bash
# Builds the critlock benchmark from the source in this checkout and runs
# it with the given arguments, from the checkout root:
#
#   bash bench/run.sh -seed 1                      # every workload, untraced then traced
#   bash bench/run.sh --workload convoy_2m --seed 3 --seconds 20 --trace 0
#   bash bench/run.sh -compare base.json head.json
#
# Everything the build and the runs write (Go build cache, binaries,
# generated traces, instrumented copies) stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -o "$build/critbench" .
exec "$build/critbench" "$@"
