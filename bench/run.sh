#!/usr/bin/env bash
# Builds the shaderbench benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh --workload cold-corpus --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache, the go command's own config and
# telemetry files, and the benchmark's scratch stores all live under
# .bench_build/ in the current directory, so nothing is written outside
# the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C bench build -o "$out/shaderbench" ./shaderbench
exec "$out/shaderbench" "$@"
