#!/usr/bin/env bash
# Builds the kvbench harness from source and runs it with the given flags.
# Run from the repository root:
#
#   bash kvbench/run.sh --workload kv-write --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache and binary live under .bench_build/ in the
# current directory, so nothing outside it is written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/kvbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/kvbench" && go build -o "$out/kvbench" .)
exec "$out/kvbench" "$@"
