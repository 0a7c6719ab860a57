#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root:
#   bash e2ebench/run.sh --workload flat-scale --seed 1 --seconds 10 --trace 0
# Every build and run artifact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/e2ebench.bin" .)
exec "$out/e2ebench.bin" -out "$out" "$@"
