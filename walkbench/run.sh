#!/usr/bin/env bash
# Builds walkbench from this checkout's source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash walkbench/run.sh --workload simulate --seed 1 --seconds 24 --trace 0
#
# The binary, the Go build cache and the traced runs' span dumps stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd walkbench && go build -o "$out/walkbench" .)
exec "$out/walkbench" "$@"
