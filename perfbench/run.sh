#!/usr/bin/env bash
# Builds sigserver and the benchmark from the checkout's sources, then runs
# one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ingest-durable --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build in
# the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/sigserver" ./cmd/sigserver
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -sigserver "$out/sigserver" -workdir "$out/work" "$@"
