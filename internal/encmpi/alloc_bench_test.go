package encmpi_test

import (
	"bytes"
	"testing"

	"encmpi/internal/aead"
	"encmpi/internal/aead/codecs"
	"encmpi/internal/encmpi"
	"encmpi/internal/mpi"
)

// allocSize is the payload the allocation benchmarks exercise: large enough
// that the wire buffer dominates the allocation profile, matching the
// rendezvous bulk-data regime the paper's throughput analysis targets.
const allocSize = 256 << 10

func newRealForAlloc(tb testing.TB) *encmpi.RealEngine {
	tb.Helper()
	codec, err := codecs.New("aesstd", testKey)
	if err != nil {
		tb.Fatal(err)
	}
	return encmpi.NewRealEngine(codec, aead.NewCounterNonce(0xA110C))
}

func BenchmarkSealAlloc(b *testing.B) {
	e := newRealForAlloc(b)
	plain := mpi.Bytes(bytes.Repeat([]byte{0xAB}, allocSize))
	b.SetBytes(allocSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire := e.Seal(nil, plain)
		wire.Release()
	}
}

func BenchmarkOpenAlloc(b *testing.B) {
	e := newRealForAlloc(b)
	wire := e.Seal(nil, mpi.Bytes(bytes.Repeat([]byte{0xAB}, allocSize)))
	b.SetBytes(allocSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plain, err := e.Open(nil, wire)
		if err != nil {
			b.Fatal(err)
		}
		plain.Release()
	}
}

// TestSealAllocRegression pins the pooled hot path: on a warm pool a 256 KiB
// Seal or Open allocates nothing.
func TestSealAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are meaningless")
	}
	plain := mpi.Bytes(make([]byte, allocSize))
	e := newRealForAlloc(t)
	wire := e.Seal(nil, plain) // warm the pool: steady state, not first fill
	if got := testing.AllocsPerRun(20, func() {
		w := e.Seal(nil, plain)
		w.Release()
	}); got > 0 {
		t.Errorf("pooled Seal: %.1f allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(20, func() {
		p, err := e.Open(nil, wire)
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	}); got > 0 {
		t.Errorf("pooled Open: %.1f allocs/op, want 0", got)
	}
}

// TestParallelSealAllocRegression is the same pin for the chunked engine,
// whose Seal used to allocate the wire buffer plus a nonce slice per chunk:
// what remains is the one chunk closure.
func TestParallelSealAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are meaningless")
	}
	plain := mpi.Bytes(make([]byte, allocSize))
	e := newParallel(t, 1, 64<<10)
	w := e.Seal(nil, plain)
	w.Release()
	if got := testing.AllocsPerRun(20, func() {
		wire := e.Seal(nil, plain)
		wire.Release()
	}); got > 1 {
		t.Errorf("pooled parallel Seal: %.1f allocs/op, want ≤ 1", got)
	}
}

// TestParallelDispatchAllocRegression pins the dispatch cost of runChunks on
// a warm engine:
//
//   - The single-chunk path is the inline fast path: no goroutine, no
//     completion handle — nothing beyond the wire lease itself.
//   - The multi-chunk path pays only the per-chunk Batch.Go closures.
func TestParallelDispatchAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	seal := func(size int) float64 {
		e := newParallel(t, 4, 64<<10)
		plain := mpi.Bytes(make([]byte, size))
		w := e.Seal(nil, plain) // warm the pool
		w.Release()
		return testing.AllocsPerRun(30, func() {
			wire := e.Seal(nil, plain)
			wire.Release()
		})
	}
	if got := seal(4 << 10); got > 1.5 {
		t.Errorf("single-chunk Seal: %.1f allocs/op, want ≤ 1.5 (inline fast path)", got)
	}
	if got := seal(allocSize); got >= 12 {
		t.Errorf("4-chunk Seal: %.1f allocs/op, want < 12 (Batch dispatch only)", got)
	}
}
