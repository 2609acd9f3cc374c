#!/bin/sh
# Machine-readable performance snapshot: runs cmd/benchjson and writes the
# committed BENCH_PR8.json (seal/open ns/op, MB/s, allocs/op per engine and
# size; 16x4KiB concurrent aggregate through the shared crypto pool vs the
# per-call baseline; shm ping-pong; simulated collective latencies incl.
# BcastPipelined vs Bcast; multi-pair TCP bandwidth with the batched wire
# engine vs the SyncWrites baseline; chunked-rendezvous p2p overlap vs the
# serial seal-whole-message path on TCP and the simulated IB40G cluster;
# session_overhead pricing the context-AAD binding vs the legacy engine;
# shm_ring comparing zero-copy slot-ring delivery vs seed inline copies).
#
# QUICK=1 bounds the measurement loops for CI smoke use; OUT overrides the
# output path. `make bench-legacy` is the entry point; the repo benchmark that
# BENCHMARK.json declares is `bash bench/run.sh` (`make bench`).
set -eu
cd "$(dirname "$0")/.."

OUT="${OUT:-BENCH_PR8.json}"
FLAGS=""
[ "${QUICK:-0}" = "1" ] && FLAGS="-quick"

go run ./cmd/benchjson $FLAGS -o "$OUT"
grep -q '"schema": "encmpi-bench/1"' "$OUT" || {
	echo "bench.sh: $OUT is missing the snapshot schema marker" >&2
	exit 1
}
