#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Every argument is passed through to the benchmark binary, e.g.
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and the server's data directories all
# live under .bench_build/ in the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$PWD/.bench_build
mkdir -p "$out/tmp"
# Keep every file the go command writes inside the checkout: build cache,
# module paths, temporary files and its per-user config and telemetry.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/mod GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
