#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it; all
# arguments go to the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-recursive --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and scratch files stay under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
# Go's build cache, module cache and telemetry counters default to the
# home directory; keep them inside the checkout.
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOWORK=off
export CARGO_TARGET_DIR=$build
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .) >&2
exec "$build/perfbench-bin" "$@"
