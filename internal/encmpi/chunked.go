package encmpi

import (
	"encmpi/internal/bufpool"
	"encmpi/internal/mpi"
)

// Transparent crypto–comm overlap (DESIGN.md §12): above a size threshold,
// Send and Isend hand the payload to the chunked rendezvous protocol —
// after the CTS the sender seals chunk k+1 while the wire engine is still
// flushing chunk k, and the receiver opens chunks inside Wait as the frames
// arrive instead of after the whole ciphertext has landed. Each chunk is an
// independent AEAD message under its own nonce, so authentication fails per
// chunk and reassembly never trusts unauthenticated bytes. Below the
// threshold nothing changes: the classic seal-whole-message single-frame
// path runs exactly as before.

// DefaultPipelineThreshold is the payload size at which Send/Isend switch
// to the chunked overlap path. A message this size spends long enough on
// the wire for per-chunk sealing to hide behind it.
const DefaultPipelineThreshold = 256 << 10

// DefaultPipelineChunk is the chunk size of the transparent path. Half the
// default threshold, so the smallest chunked message already has two chunks
// to overlap.
const DefaultPipelineChunk = 128 << 10

// WithPipeline configures the transparent chunked-rendezvous path.
// threshold 0 keeps the default, a negative threshold disables chunking
// entirely (every message travels as one frame), and chunk ≤ 0 keeps the
// default chunk size.
func WithPipeline(threshold, chunk int) WrapOption {
	return func(e *Comm) {
		switch {
		case threshold < 0:
			e.pipeThreshold = 0
		case threshold == 0:
			e.pipeThreshold = DefaultPipelineThreshold
		default:
			e.pipeThreshold = threshold
		}
		if chunk > 0 {
			e.pipeChunk = chunk
		}
	}
}

// chunkPlan decides whether an n-byte payload takes the chunked path, and
// with what geometry. A payload that would produce fewer than two chunks
// has nothing to overlap and stays on the single-frame path.
func (e *Comm) chunkPlan(n int) (chunkLen, count int, ok bool) {
	if e.pipeThreshold <= 0 || n < e.pipeThreshold {
		return 0, 0, false
	}
	chunkLen = e.pipeChunk // always positive: Wrap's default, or WithPipeline's
	count = (n + chunkLen - 1) / chunkLen
	if count < 2 {
		return 0, 0, false
	}
	return chunkLen, count, true
}

// isendChunked starts the chunked overlap send: the RTS announces the exact
// wire total and chunk count, and each chunk is sealed lazily — on the
// waiting goroutine, while earlier chunks drain — by the src callback the
// rendezvous progress engine drives. Unlike the eager-sealing Isend, the
// caller's buffer must stay untouched until the request completes (the
// standard MPI_Isend contract).
func (e *Comm) isendChunked(dst, tag int, buf mpi.Buffer, chunkLen, count int) *Request {
	n := buf.Len()
	wireTotal := 0
	for k := 0; k < count; k++ {
		lo, hi := k*chunkLen, (k+1)*chunkLen
		if hi > n {
			hi = n
		}
		wireTotal += e.eng.WireLen(hi - lo)
	}
	// Hold the payload's pool lease (if any) until the last chunk is sealed.
	buf.Retain()
	inner := e.c.IsendChunks(dst, tag, wireTotal, count, func(k int) (mpi.Buffer, error) {
		lo, hi := k*chunkLen, (k+1)*chunkLen
		if hi > n {
			hi = n
		}
		// Each segment's record binds its position in the stream on top of
		// the point-to-point coordinates, so segments cannot be reordered or
		// transplanted between transfers of the same shape.
		ctx := e.p2pSendCtx(dst, tag)
		ctx.Chunk, ctx.Chunks = k, count
		return e.seal(buf.Slice(lo, hi), ctx), nil
	})
	inner.SetOnComplete(func(*mpi.Request) { buf.Release() })
	return &Request{inner: inner}
}

// chunkOpenSink builds the per-chunk consumer a receive installs before it
// is posted: each arriving wire chunk is opened inside Wait — overlapping
// the wire time of the chunks still inbound — and its plaintext landed
// directly in one pooled assembly buffer, so the receive does exactly the
// byte work of the single-frame path plus per-frame protocol cost. Modeled
// runs move sizes and time, not bytes: a synthetic chunk is opened for its
// length alone. The rendezvous protocol guarantees in-order, exactly-once
// calls and has already bounded the wire bytes by the RTS announcement, so
// the sink's own bounds checks are defense in depth. Any authentication
// failure fails the receive at that chunk; the sink releases its partial
// assembly before reporting it.
func (e *Comm) chunkOpenSink() mpi.ChunkSink {
	var asm *bufpool.Lease
	var off int
	synthetic := false
	return func(k, count, wireTotal, src, tag int, chunk mpi.Buffer) (mpi.Buffer, error) {
		// Derive the context this segment must have been sealed under: the
		// exchange coordinates from the RTS (src arrives in world numbering)
		// plus the segment's position in the stream.
		ctx := e.p2pRecvCtx(src, tag)
		ctx.Chunk, ctx.Chunks = k, count
		fail := func(err error) (mpi.Buffer, error) {
			asm.Release()
			asm = nil
			return mpi.Buffer{}, err
		}
		// A stream that switches representation mid-message is malformed.
		if chunk.IsSynthetic() != synthetic && k > 0 {
			return fail(malformedf("chunk %d of %d switches between real and synthetic bytes", k, count))
		}
		if chunk.IsSynthetic() {
			synthetic = true
			plain, err := e.open(chunk, ctx)
			if err != nil {
				return fail(err)
			}
			off += plain.Len()
			if k == count-1 {
				return mpi.Synthetic(off), nil
			}
			return mpi.Buffer{}, nil
		}
		if asm == nil {
			// wireTotal bounds the plaintext total: Open never expands, and
			// the [off:wireTotal] window below enforces it per chunk.
			asm = bufpool.Get(wireTotal)
		}
		plain, err := e.openTo(asm.Bytes()[off:wireTotal], chunk, ctx)
		if err != nil {
			return fail(err)
		}
		off += plain.Len()
		if k == count-1 {
			out := mpi.BytesWithLease(asm.Bytes()[:off], asm)
			asm = nil
			return out, nil
		}
		return mpi.Buffer{}, nil
	}
}
