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
// threshold the seal-whole-message single-frame path runs.

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
// rendezvous progress engine drives.
func (e *Comm) isendChunked(req *Request, dst, tag int, buf mpi.Buffer, chunkLen, count int) {
	n := buf.Len()
	wireTotal := 0
	for k := 0; k < count; k++ {
		lo, hi := k*chunkLen, (k+1)*chunkLen
		if hi > n {
			hi = n
		}
		wireTotal += e.eng.WireLen(hi - lo)
	}
	// Hold the payload's pool lease (if any) until the send completes.
	buf.Retain()
	req.hold = buf
	e.c.StartSendChunks(&req.inner, (*recordHook)(req), dst, tag, wireTotal, count, func(k int) (mpi.Buffer, error) {
		lo, hi := k*chunkLen, (k+1)*chunkLen
		if hi > n {
			hi = n
		}
		// Each segment's record binds its position in the stream on top of
		// the point-to-point coordinates, so segments cannot be reordered or
		// transplanted between transfers of the same shape.
		ctx := e.p2pSendCtx(dst, tag)
		ctx.Chunk, ctx.Chunks, ctx.Scratch = k, count, &req.aad
		return e.seal(buf.Slice(lo, hi), ctx), nil
	})
}

// Chunk implements mpi.Hook: the per-chunk consumer of a receive whose sender
// chunked. Each arriving wire chunk is opened inside Wait — overlapping the
// wire time of the chunks still inbound — and its plaintext landed directly
// in one pooled assembly buffer, so the receive does exactly the byte work of
// the single-frame path plus per-frame protocol cost. Modeled runs move sizes
// and time, not bytes: a synthetic chunk is opened for its length alone. The
// rendezvous protocol guarantees in-order, exactly-once calls and has bounded
// the wire bytes by the RTS announcement; the checks here are defense in
// depth. An authentication failure fails the receive at that chunk.
func (h *recordHook) Chunk(k, count, wireTotal, src, tag int, chunk mpi.Buffer) (mpi.Buffer, error) {
	req := (*Request)(h)
	e := req.e
	// Derive the context this segment must have been sealed under: the
	// exchange coordinates from the RTS (src arrives in world numbering)
	// plus the segment's position in the stream.
	ctx := e.p2pRecvCtx(src, tag)
	ctx.Chunk, ctx.Chunks, ctx.Scratch = k, count, &req.aad
	fail := func(err error) (mpi.Buffer, error) {
		req.asm.Release()
		req.asm = nil
		return mpi.Buffer{}, err
	}
	// A stream that switches representation mid-message is malformed.
	if chunk.IsSynthetic() != req.synthetic && k > 0 {
		return fail(malformedf("chunk %d of %d switches between real and synthetic bytes", k, count))
	}
	if chunk.IsSynthetic() {
		req.synthetic = true
		plain, err := e.open(chunk, ctx)
		if err != nil {
			return fail(err)
		}
		req.off += plain.Len()
		if k == count-1 {
			return mpi.Synthetic(req.off), nil
		}
		return mpi.Buffer{}, nil
	}
	if req.asm == nil {
		// wireTotal bounds the plaintext total: Open never expands, and
		// the [off:wireTotal] window below enforces it per chunk.
		req.asm = bufpool.Get(wireTotal)
	}
	plain, err := e.openTo(req.asm.Bytes()[req.off:wireTotal], chunk, ctx)
	if err != nil {
		return fail(err)
	}
	req.off += plain.Len()
	if k == count-1 {
		out := mpi.BytesWithLease(req.asm.Bytes()[:req.off], req.asm)
		req.asm = nil
		return out, nil
	}
	return mpi.Buffer{}, nil
}
