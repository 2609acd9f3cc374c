package encmpi

import (
	"fmt"
	"runtime"

	"encmpi/internal/aead"
	"encmpi/internal/bufpool"
	"encmpi/internal/cryptopool"
	"encmpi/internal/mpi"
	"encmpi/internal/sched"
	"encmpi/internal/session"
)

// ParallelEngine is the real-crypto realization of the paper's §V-C
// proposal: it splits each message into chunks and seals/opens them
// concurrently, so multi-core machines can feed networks faster than one
// core's AES throughput. Each chunk is an independent AES-GCM message with
// its own nonce, so the wire format is [chunk0: nonce‖ct‖tag][chunk1: ...]
// with a fixed chunk length known to both sides; total expansion is 28 bytes
// per chunk.
//
// Chunk work runs on the persistent process-wide cryptopool (long-lived
// goroutines, shared across messages and ranks) rather than per-call
// goroutine fan-out: one large message parallelizes across its chunks, and
// many concurrent small messages parallelize across their callers without
// any spawn cost. Single-chunk messages are sealed inline — zero dispatch —
// which is what makes the concurrent-small-message regime fast.
type ParallelEngine struct {
	codec aead.Codec
	nonce aead.NonceSource
	// Workers is the parallelism grain: 1 forces fully inline sequential
	// chunk processing; > 1 enables concurrent chunks (bounded by the shared
	// pool's width).
	Workers int
	// Chunk is the plaintext bytes per chunk.
	Chunk int

	// WorkPool overrides the crypto worker pool; nil means the process-wide
	// cryptopool.Default(). Tests use private pools for isolation.
	WorkPool *cryptopool.Pool
}

// DefaultParallelChunk balances parallelism grain against per-chunk
// overhead.
const DefaultParallelChunk = 128 << 10

// NewParallelEngine builds a parallel engine; workers ≤ 0 means GOMAXPROCS
// (the shared pool's width) and workers == 1 degrades to sequential
// behaviour (but keeps the chunked wire format).
func NewParallelEngine(codec aead.Codec, nonce aead.NonceSource, workers int) *ParallelEngine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ParallelEngine{codec: codec, nonce: nonce, Workers: workers, Chunk: DefaultParallelChunk}
}

// Name implements Engine.
func (e *ParallelEngine) Name() string {
	return fmt.Sprintf("%s-par%d", e.codec.Name(), e.Workers)
}

// chunkSize returns the configured chunk size, defending against a zero or
// negative Chunk (which would otherwise divide by zero in chunksOf).
func (e *ParallelEngine) chunkSize() int {
	if e.Chunk <= 0 {
		return DefaultParallelChunk
	}
	return e.Chunk
}

// chunksOf returns the chunk count for a plaintext length.
func (e *ParallelEngine) chunksOf(n int) int {
	if n == 0 {
		return 1
	}
	chunk := e.chunkSize()
	return (n + chunk - 1) / chunk
}

// WireLen implements Engine: 28 bytes of expansion per chunk.
func (e *ParallelEngine) WireLen(n int) int { return n + e.chunksOf(n)*aead.Overhead }

// runChunks executes fn(0) … fn(chunks-1) under the engine's parallelism
// policy. Single-chunk calls (and Workers == 1) run inline with no dispatch
// at all; otherwise chunks 1…n-1 go to the shared worker pool and chunk 0
// runs on the caller — the caller is a worker too, so a saturated pool
// degrades to caller-paced progress rather than idle waiting.
func (e *ParallelEngine) runChunks(chunks int, fn func(i int)) {
	if chunks == 1 || e.Workers == 1 {
		for i := 0; i < chunks; i++ {
			fn(i)
		}
		return
	}
	pool := e.WorkPool
	if pool == nil {
		pool = cryptopool.Default()
	}
	var b cryptopool.Batch
	for i := 1; i < chunks; i++ {
		i := i
		b.Go(pool, func() { fn(i) })
	}
	fn(0)
	b.Wait()
}

// SealTo implements Engine. With a nil dst the wire buffer (and the zeroed
// scratch for synthetic inputs) is drawn from the buffer pool; a dst takes
// the whole chunked wire form or the seal is declined. The record context is
// ignored: the chunks are context-free AES-GCM messages.
func (e *ParallelEngine) SealTo(_ sched.Proc, dst []byte, plain mpi.Buffer, _ session.RecordCtx) (mpi.Buffer, bool) {
	n := plain.Len()
	wireLen := e.WireLen(n)
	if dst != nil && (plain.IsSynthetic() || wireLen > len(dst)) {
		return mpi.Buffer{}, false
	}
	data := plain.Data
	var scratch, lease *bufpool.Lease
	if plain.IsSynthetic() && n > 0 {
		scratch = bufpool.Get(n)
		data = scratch.Bytes()[:n]
		clear(data) // pooled storage is dirty; the model is all-zeros
	}
	chunk := e.chunkSize()
	chunks := e.chunksOf(n)
	out := dst
	if dst == nil {
		lease = bufpool.Get(wireLen)
		out = lease.Bytes()
	}
	out = out[:wireLen]

	// Draw all nonces up front, serially, straight into each chunk's wire
	// span (the source is serialized anyway — no point paying a per-chunk
	// nonce allocation to parallelize it).
	for i := 0; i < chunks; i++ {
		wlo := i*chunk + i*aead.Overhead
		if err := e.nonce.Next(out[wlo : wlo+aead.NonceSize]); err != nil {
			panic(fmt.Sprintf("encmpi: nonce generation: %v", err))
		}
	}

	e.runChunks(chunks, func(i int) {
		lo := i * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wlo := lo + i*aead.Overhead
		whi := hi + (i+1)*aead.Overhead
		// The destination's capacity is clamped to this chunk's own wire
		// span [wlo, whi): a codec that appends more than its declared
		// overhead reallocates and fails loudly downstream instead of
		// silently overwriting the next chunk's nonce and ciphertext.
		nonce := out[wlo : wlo+aead.NonceSize]
		e.codec.Seal(out[wlo+aead.NonceSize:wlo+aead.NonceSize:whi], nonce, data[lo:hi])
	})
	scratch.Release()
	if dst != nil {
		return mpi.Bytes(out), true
	}
	return mpi.PooledBytes(lease, wireLen), true
}

// OpenTo implements Engine.
func (e *ParallelEngine) OpenTo(_ sched.Proc, dst []byte, wire mpi.Buffer, _ session.RecordCtx) (mpi.Buffer, error) {
	if wire.IsSynthetic() {
		return mpi.Buffer{}, fmt.Errorf("encmpi: parallel engine needs real bytes")
	}
	w := wire.Data
	// Recover the plaintext length: n + ceil(n/Chunk)*28 = len(w).
	n, err := e.plainLen(len(w))
	if err != nil {
		return mpi.Buffer{}, err
	}
	chunk := e.chunkSize()
	chunks := e.chunksOf(n)

	// Validate every chunk's wire span against len(w) before dispatching any
	// worker: a wire whose total length passes the plainLen arithmetic but
	// is internally inconsistent must surface as an error on the caller's
	// goroutine, never as an out-of-bounds panic inside a worker.
	for i := 0; i < chunks; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wlo := lo + i*aead.Overhead
		whi := hi + (i+1)*aead.Overhead
		if wlo < 0 || whi > len(w) || whi-wlo < aead.Overhead {
			return mpi.Buffer{}, malformedf("parallel wire chunk %d spans [%d:%d) of a %d-byte wire", i, wlo, whi, len(w))
		}
	}
	out := dst
	var lease *bufpool.Lease
	if dst == nil {
		lease = bufpool.Get(n)
		out = lease.Bytes()
	} else if n > len(dst) {
		return mpi.Buffer{}, errDstShort(len(dst), n)
	}
	out = out[:n]

	errs := make([]error, chunks)
	e.runChunks(chunks, func(i int) {
		lo := i * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wlo := lo + i*aead.Overhead
		whi := hi + (i+1)*aead.Overhead
		span := w[wlo:whi]
		nonce, ct := span[:aead.NonceSize], span[aead.NonceSize:]
		if _, err := e.codec.Open(out[lo:lo:lo+(hi-lo)], nonce, ct); err != nil {
			errs[i] = err
		}
		// On success the chunk decrypted in place into out[lo:hi].
	})
	for _, err := range errs {
		if err != nil {
			lease.Release()
			return mpi.Buffer{}, err
		}
	}
	if dst != nil {
		return mpi.Bytes(out), nil
	}
	return mpi.PooledBytes(lease, n), nil
}

// Seal implements Engine.
func (e *ParallelEngine) Seal(p sched.Proc, plain mpi.Buffer) mpi.Buffer {
	wire, _ := e.SealTo(p, nil, plain, session.RecordCtx{})
	return wire
}

// Open implements Engine.
func (e *ParallelEngine) Open(p sched.Proc, wire mpi.Buffer) (mpi.Buffer, error) {
	return e.OpenTo(p, nil, wire, session.RecordCtx{})
}

// plainLen inverts WireLen. Any wire length that no plaintext length maps
// to — including negative or sub-overhead lengths — is malformed.
func (e *ParallelEngine) plainLen(wireLen int) (int, error) {
	if wireLen < aead.Overhead {
		return 0, malformedf("parallel wire of %d bytes is shorter than one %d-byte chunk overhead", wireLen, aead.Overhead)
	}
	chunk := e.chunkSize()
	per := chunk + aead.Overhead
	full := wireLen / per
	rem := wireLen - full*per
	n := full * chunk
	if rem != 0 {
		if rem < aead.Overhead {
			return 0, malformedf("parallel wire length %d inconsistent with %d-byte chunking", wireLen, chunk)
		}
		n += rem - aead.Overhead
	}
	if n < 0 || e.WireLen(n) != wireLen {
		return 0, malformedf("parallel wire length %d inconsistent with %d-byte chunking", wireLen, chunk)
	}
	return n, nil
}
