#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 50 --trace 0
#
# Every build product (binary, Go build cache, profiles) stays under
# .bench_build in the current directory, and so do the go command's
# GOPATH and configuration directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

mkdir -p "$build/bin"
go -C "$root/perfbench" build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
