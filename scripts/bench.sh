#!/bin/sh
# Machine-readable performance snapshot: runs cmd/benchjson, which writes the
# committed snapshot file it names itself (its -o default; seal/open ns/op,
# MB/s, allocs/op per engine and size; 16x4KiB concurrent aggregate through
# the parallel engine vs the serial real engine; shm ping-pong; simulated
# collective latencies incl. BcastPipelined vs Bcast; multi-pair TCP bandwidth
# with the batched wire engine vs the SyncWrites baseline; chunked-rendezvous
# p2p overlap vs the serial seal-whole-message path on TCP and the simulated
# IB40G cluster; session_overhead pricing the context-AAD binding vs the
# legacy engine; shm_ring comparing zero-copy slot-ring delivery vs seed
# inline copies).
#
# QUICK=1 bounds the measurement loops for CI smoke use; OUT overrides the
# output path (unset: benchjson's own default). `make bench-legacy` is the
# entry point; the repo benchmark that BENCHMARK.json declares is
# `bash bench/run.sh` (`make bench`).
set -eu
cd "$(dirname "$0")/.."

set --
[ "${QUICK:-0}" = "1" ] && set -- "$@" -quick
[ -n "${OUT:-}" ] && set -- "$@" -o "$OUT"

# benchjson reports "wrote <path> (<n> bytes)"; that path is the file to check.
out="$(go run ./cmd/benchjson "$@")"
echo "$out"
written="$(echo "$out" | sed -n 's/^wrote \(.*\) ([0-9]* bytes)$/\1/p')"
grep -q '"schema": "encmpi-bench/1"' "$written" || {
	echo "bench.sh: ${written:-benchjson output} is missing the snapshot schema marker" >&2
	exit 1
}
