#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments, from the repository root:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and scratch files stay inside the
# checkout, under .bench_build.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$bench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
