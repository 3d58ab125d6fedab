#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# from the root of a checkout:
#
#   bash benchmark/run.sh --workload replay --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and every scratch file stay under
# .bench_build in the checkout. The build needs the repository around
# the benchmark directory (go.mod replaces the cablevod module with
# ../), so outside a full checkout it fails before printing a result.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$out/cablevod-benchmark" .
exec "$out/cablevod-benchmark" "$@"
