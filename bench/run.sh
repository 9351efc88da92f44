#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build and the run write — the Go build
# cache, the binary, the node directories — stays under .bench_build at
# the checkout root; traces and results go to bench/out.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal/diskstore ]; then
	echo "bench: $root is not a checkout of the repository (the benchmark builds the program from source)" >&2
	exit 2
fi
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
