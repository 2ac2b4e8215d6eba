#!/usr/bin/env bash
# Builds the benchmark harness from source and runs one workload. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload online --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, WAL
# directories, span files) stays under the build directory:
# $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp" "$build/gocache"
build="$(cd "$build" && pwd)"
# A run that was killed leaves its WAL directory behind.
rm -rf "$build"/tmp/perfbench-*

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --spans-dir "$build/spans" "$@"
