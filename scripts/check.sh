#!/bin/sh
# Extended tier-1 gate: static checks, the full test suite under the race
# detector, and a short fuzz smoke of every wire-decoder target. CI and
# pre-commit both run this; `make check` is the entry point.
#
# FUZZTIME overrides the per-target fuzz budget (default 10s).
set -eu
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

fuzz() {
	pkg="$1"
	target="$2"
	echo "== fuzz $target ($pkg, $FUZZTIME)"
	go test "$pkg" -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME"
}

echo "== stats smoke (encrypted ping-pong byte accounting)"
# A 2-rank encrypted ping-pong with -stats must report per-rank crypto
# accounting whose merged totals satisfy wire == plain + msgs*28 exactly;
# the command exits non-zero if the invariant fails, and we also assert
# the confirmation line so a silently missing check cannot pass.
out="$(go run ./cmd/pingpong -small -lib boringssl -iters 5 -stats)"
echo "$out" | grep -q "byte accounting OK" || {
	echo "stats smoke failed: no byte-accounting confirmation in output:"
	echo "$out"
	exit 1
}

echo "== alloc-regression smoke (pooled hot paths stay under their absolute ceilings)"
# The AllocsPerRun tests pin the hot paths at fixed ceilings: pooled Seal/Open
# at 0 allocs/op, the parallel engine's dispatch, the chunked 1 MiB exchange,
# the 1 KiB session ping-pong over the shm rings at 0 (blocking calls recycle
# their one request object; record context and AAD cost nothing), the 64 x
# 4 KiB session window over tcp at one request per message per side, and the
# 256 KiB TCP rendezvous round trip at ~0 allocs/op; the single-shot
# benchmarks prove the harness runs.
go test ./internal/encmpi ./internal/transport/tcp -run 'AllocRegression|PingPongAllocs|WindowAllocs' -count=1
go test ./internal/encmpi ./internal/transport/tcp -run '^$' -bench 'Alloc' -benchtime 1x

echo "== one engine contract, one request hook (no type-assertion discovery, no func-typed hooks)"
# The encrypted layer makes the same two calls on every engine (DESIGN.md
# §7.1). The only engine type assertion allowed in non-test code is Wrap's
# *HearEngine parameter unwrap.
if grep -nE '(eng|Engine\(\))\.\(' internal/encmpi/*.go | grep -v '_test\.go:' | grep -v '\.(\*HearEngine)'; then
	echo "engine type assertion found in internal/encmpi (see above)"
	exit 1
fi
# A layered request reaches the protocol through the mpi.Hook interface it
# implements itself (DESIGN.md §7.1, §12): no completion hook or chunk sink may
# come back as a func-typed field, setter or per-operation closure.
if grep -nE 'SetOnComplete|onComplete|ChunkSink|IrecvSink|(hook|sink) +func\(' internal/encmpi/*.go internal/mpi/*.go | grep -v '_test\.go:'; then
	echo "func-typed completion hook or chunk sink found on the record path (see above)"
	exit 1
fi

echo "== pipeline-overlap smoke (chunked rendezvous must overlap crypto with the wire)"
# TestPipelineOverlapSmoke pins the tentpole property over real TCP: a 1 MiB
# encrypted transfer must record nonzero seal-while-sending overlap in the
# metrics (chunk k+1 sealed while chunk k drains), and every chunk must be
# both sent and opened through the pipeline.
go test ./internal/encmpi -run 'PipelineOverlapSmoke' -count=1

echo "== session smoke (two sessions multiplexed over shm and TCP; splice rejected)"
# TestSessionSmoke runs two independent sessions concurrently over one job's
# shared transport — both the shm ring and TCP connections (lane
# demultiplexing must keep them apart on either); TestSessionSpliceRejected
# proves a ciphertext spliced across sessions fails AEAD authentication and
# is attributed as an auth failure, not a stray (DESIGN.md §13).
go test . -run 'TestSessionSmoke|TestSessionSpliceRejected' -count=1

echo "== shm-ring smoke (zero-copy seal-into-slot engages and retires cleanly)"
# TestShmRing* pins the zero-copy shm path end to end: session and legacy
# engines seal directly into ring slots (SealsInPlace) and the receiver
# opens them in place (OpensInPlace), every acquired slot is retired,
# WithShmRing(-1, 0) really disables the rings, and oversize payloads fall
# back to chunked rendezvous (DESIGN.md §14). The transport-level eager
# alloc gate proves the ring round trip allocates nothing.
go test . -run 'TestShmRing' -count=1
go test ./internal/transport/shm -run 'TestEagerAllocRegression|TestStrayNotChargedToReceiver|TestLaneDemultiplex' -count=1

echo "== hierarchical smoke (p=64 simnet, hierarchical == flat bit-for-bit)"
# TestHierFlatEquivalenceSim runs every collective both hierarchically and
# flat in one 64-rank simulated job (8 nodes, topology from the cluster
# spec, session engine) and requires identical bytes — the two-level
# algorithms must be invisible to correctness (DESIGN.md §15).
go test . -run 'TestHierFlatEquivalenceSim' -count=1

echo "== persistent-collective gate (steady-state Start/Wait does zero setup)"
# TestPersistentPlanAllocs pins a persistent plan cycle at 0 allocs/op via
# AllocsPerRun; TestPersistentSteadyState pins Session.Derivations flat and
# the topology cache untouched across cycles — init-once/start-many means
# no Split, no negotiation, no key/nonce derivation after the first cycle.
go test . -run 'TestPersistentPlanAllocs|TestPersistentSteadyState' -count=1

echo "== hear smoke (additive-noise engine: allocs, counters, integrity caveat)"
# TestHearPlanZeroAllocs pins the persistent-plan hear Allreduce at 0
# allocs/op steady-state (pooled keystream tasks + buffer pool);
# TestHearKeystreamCounters asserts the keystream-derivation accounting —
# hear ops charge HearEncrypts/HearDecrypts/HearKeystreamElems exactly
# (2·elems per op) while the AEAD seal/open counters stay untouched;
# TestHearHostileBytesNoPanic pins the documented failure mode — hostile
# bytes decode to garbage, never a panic or a false accept signal
# (DESIGN.md §16).
go test . -run 'TestHearPlanZeroAllocs|TestHearKeystreamCounters|TestHearHostileBytesNoPanic' -count=1

echo "== hier slot-ring smoke (intra-node legs ride the PR 8 rings)"
go test . -run 'TestHierIntraNodeSlotRings' -count=1

echo "== sim-engine smoke (golden determinism, no goroutine leak, engine benchmarks)"
# TestSimGoldenDeterminism pins a 64-rank simulated step's event count and
# all 64 final clocks to constants recorded before the token-passing core
# (DESIGN.md §5.1), at GOMAXPROCS 1 and 2; TestAbnormalEndLeaksNoGoroutines
# proves a deadlocked or MaxEvents-stopped run unwinds every proc goroutine;
# the single-shot benchmarks prove the ns/event + allocs/event harness runs.
go test ./internal/job -run 'TestSimGoldenDeterminism' -count=1
go test ./internal/sim -run 'TestAbnormalEndLeaksNoGoroutines|TestResumeEventsDoNotAllocate' -count=1
go test ./internal/sim -run '^$' -bench Engine -benchtime 1x

echo "== benchmark pins (bench/ is its own module; BENCHMARK.json vs the Go tables)"
go test -C bench .

echo "== bench smoke (machine-readable snapshot, quick mode)"
# The full snapshot is regenerated by `make bench-legacy`; here we only prove
# the harness runs end to end and emits a parseable report.
QUICK=1 OUT=/tmp/encmpi_bench_smoke.json ./scripts/bench.sh

echo "== wire-batching smoke (A/B ran and the engine actually coalesced)"
# The multi-pair TCP suite runs both the batched wire engine and the
# SyncWrites baseline; the batched runs must show real coalescing — a mean
# batch of more than one frame per flush — or the engine degenerated into
# one-write-per-message and the A/B comparison is meaningless.
awk -F': ' '
	/"batched_mean_batch_frames"/ { v = $2 + 0; if (v > best) best = v }
	/"sync_mb_s"/                 { sync_seen = 1 }
	END {
		if (!sync_seen) { print "wire-batching smoke: no SyncWrites baseline in report"; exit 1 }
		if (best <= 1)  { print "wire-batching smoke: no coalescing observed (best mean batch " best " frames/flush)"; exit 1 }
		print "coalescing OK (best mean batch " best " frames/flush)"
	}
' /tmp/encmpi_bench_smoke.json

fuzz ./internal/aead FuzzDecryptMessage
fuzz ./internal/aead/gcm FuzzOpenRejectsGarbage
fuzz ./internal/encmpi FuzzParallelOpen
fuzz ./internal/encmpi FuzzPlainLen
fuzz ./internal/encmpi FuzzPipelineHeader
fuzz ./internal/transport/tcp FuzzFrameHeader
fuzz ./internal/session FuzzSessionAAD

echo "== all checks passed"
