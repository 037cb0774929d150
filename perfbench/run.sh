#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload inline-count --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the runs write
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" HOME="$build/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOTELEMETRY=off

if [ ! -f "$root/perfbench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
