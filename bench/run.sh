#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. The
# binary and the Go build cache go to .bench_build/ at the root of the
# checkout, so nothing is written outside it. This is the command
# BENCHMARK.json names; by hand, `go run -C bench . <flags>` does the same.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOFLAGS="${GOFLAGS:-} -buildvcs=false" \
	go build -C "$root/bench" -o "$build/encmpi-bench" .
cd "$root"
exec "$build/encmpi-bench" "$@"
