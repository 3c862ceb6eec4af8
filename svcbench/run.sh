#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash svcbench/run.sh --workload adults-mixed --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache, the binary and every
# file a run writes stay under .bench_build/svcbench in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/svcbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/svcbench" && go build -o "$out/svcbench" .)
exec "$out/svcbench" -dir "$out" "$@"
