#!/usr/bin/env bash
# Builds the Mirage benchmark from this checkout's sources and runs it.
# Run it from the root of the checkout:
#
#   bash mirbench/run.sh --workload fleet-10k --seed 1 --seconds 20 --trace 0
#   bash mirbench/run.sh compare parent.jsonl change.jsonl
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/mirbench" build -o "$out/mirbench" .
exec "$out/mirbench" "$@"
