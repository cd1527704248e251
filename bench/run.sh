#!/usr/bin/env bash
# Builds the benchmark from source and replaces this shell with it, so
# the command is one foreground process with no children: killing it
# cannot orphan anything. Run from the root of the checkout:
#
#   bash bench/run.sh --workload serve_warm --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays inside the checkout, under
# .bench_build/: the binary, the Go build cache and the compiler's
# temporary files.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="${GOPATH:-$build/gopath}"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
