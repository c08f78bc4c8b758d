#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload escalate --seed 1 --seconds 50 --trace 0
#
# Run from the root of the checkout. Everything the build writes (Go
# build cache, the binary) goes to .bench_build/ under that root; the
# build's own output goes to standard error, so the last line of
# standard output is always the benchmark's JSON result.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
