package encmpi

import (
	"fmt"
	"sync"

	"encmpi/internal/bufpool"
	"encmpi/internal/hear"
	"encmpi/internal/mpi"
	"encmpi/internal/obs"
	"encmpi/internal/session"
)

// Comm wraps an mpi.Comm with encrypted variants of the routines the paper
// instruments: Send, Recv, Isend, Irecv, Wait, Waitall, Bcast, Allgather,
// Alltoall, and Alltoallv (§IV). Operations that carry no application data
// (Barrier) pass through.
type Comm struct {
	c   *mpi.Comm
	eng Engine
	// metrics receives crypto accounting; nil (inert) when unobserved.
	metrics *obs.Rank

	// pipeThreshold and pipeChunk steer the transparent chunked-rendezvous
	// overlap path (chunked.go, DESIGN.md §12): payloads of pipeThreshold
	// bytes or more travel as pipeChunk-byte chunks sealed and opened inside
	// Wait, overlapping crypto with the wire. pipeThreshold ≤ 0 disables
	// the path (WithPipeline).
	pipeThreshold int
	pipeChunk     int

	// hearParams is non-nil when the engine spec selected the additive-noise
	// ("hear") reduction path; hearSt is built lazily by the first
	// reduction's key ceremony (hear_engine.go). sealedSeq spaces
	// AllreduceSealed's tag bands across calls.
	hearParams *hear.Params
	hearSt     *hear.State
	sealedSeq  int

	// slotDeclined latches the first time the engine declines a seal into a
	// ring slot it was offered: the communicator only offers slots that fit
	// real bytes, so a decline means this engine never seals in place (null,
	// model, a padding codec) and acquiring further slots would be waste.
	slotDeclined bool
}

// WrapOption configures Wrap.
type WrapOption func(*Comm)

// ObserveWith overrides the metrics scope crypto costs are charged to. The
// default is the underlying communicator's own rank scope, so explicitly
// passing one is only needed for standalone (no-world) accounting.
func ObserveWith(rk *obs.Rank) WrapOption {
	return func(e *Comm) { e.metrics = rk }
}

// Wrap builds an encrypted communicator. All ranks must use engines with the
// same algorithm and key. When the underlying world carries a metrics
// registry, every Seal/Open on this communicator is accounted to this rank
// automatically.
func Wrap(c *mpi.Comm, eng Engine, opts ...WrapOption) *Comm {
	e := &Comm{
		c: c, eng: eng, metrics: c.Metrics(),
		pipeThreshold: DefaultPipelineThreshold,
		pipeChunk:     DefaultPipelineChunk,
	}
	if he, ok := eng.(*HearEngine); ok {
		// The hear wrapper only carries parameters: the communicator runs
		// every AEAD path on the inner engine and adds noise at the
		// reduction call sites instead of sealing them.
		p := he.Params
		e.hearParams = &p
		e.eng = he.Engine
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// seal runs the engine's seal with timing and byte accounting. The clock is
// the proc clock, so under the model engine the recorded nanoseconds are the
// virtual cipher cost and under real engines they are wall time. ctx is the
// record's communication binding, authenticated as AAD by the session engine
// and ignored by the others.
func (e *Comm) seal(buf mpi.Buffer, ctx session.RecordCtx) mpi.Buffer {
	wire, _ := e.sealTo(nil, buf, ctx)
	return wire
}

// sealTo is seal with the contract's optional destination; a declined
// in-place seal accounts nothing.
func (e *Comm) sealTo(dst []byte, buf mpi.Buffer, ctx session.RecordCtx) (mpi.Buffer, bool) {
	proc := e.c.Proc()
	if e.metrics == nil {
		return e.eng.SealTo(proc, dst, buf, ctx)
	}
	start := int64(proc.Now())
	wire, ok := e.eng.SealTo(proc, dst, buf, ctx)
	if ok {
		e.metrics.Seal(buf.Len(), wire.Len(), int64(proc.Now())-start)
		// Charge the seal to exactly one of the intra-/inter-node counters
		// (DESIGN.md §15) — the split is what makes the hierarchical
		// collectives' O(nodes) inter-node claim checkable from metrics.
		if e.sealCrossesNode(ctx) {
			e.metrics.SealInterNode()
		} else {
			e.metrics.SealIntraNode()
		}
	}
	return wire, ok
}

// sealCrossesNode classifies a seal by destination node when the record
// binds a concrete destination, and by whether the communicator spans nodes
// for fan-out (Wildcard) and context-free records.
func (e *Comm) sealCrossesNode(ctx session.RecordCtx) bool {
	c := e.c
	if !c.HasTopology() {
		return false
	}
	if ctx.Op != session.OpRaw && ctx.Dst >= 0 && ctx.Dst < c.Size() {
		return c.NodeOf(ctx.Dst) != c.NodeOf(c.Rank())
	}
	return c.SpansNodes()
}

// open runs the engine's open with timing and byte accounting; failed opens
// are recorded as auth failures (the cipher still ran before rejecting).
func (e *Comm) open(wire mpi.Buffer, ctx session.RecordCtx) (mpi.Buffer, error) {
	return e.openTo(nil, wire, ctx)
}

// openTo is open with the contract's optional destination: the chunked
// receive lands each chunk's plaintext straight in the message assembly.
func (e *Comm) openTo(dst []byte, wire mpi.Buffer, ctx session.RecordCtx) (mpi.Buffer, error) {
	proc := e.c.Proc()
	if e.metrics == nil {
		return e.eng.OpenTo(proc, dst, wire, ctx)
	}
	start := int64(proc.Now())
	plain, err := e.eng.OpenTo(proc, dst, wire, ctx)
	ns := int64(proc.Now()) - start
	if err != nil {
		e.metrics.AuthFailure(ns)
		return plain, err
	}
	e.metrics.Open(wire.Len(), plain.Len(), ns)
	if wire.TransportOwned() {
		// The ciphertext never left the shm ring slot the sender sealed it
		// into: this open read it in place.
		e.metrics.OpenInPlace()
	}
	return plain, nil
}

// sealToSlot tries to seal buf directly into a transport-owned ring slot
// addressed to dst (DESIGN.md §14), returning the slot-backed wire buffer
// and true on success. The returned buffer owns one lease reference exactly
// like seal's result, but its storage is shared with the receiver, so it
// must travel owned (no eager clone) and must not be mutated after
// injection. Any miss — no ring, ring full, payload out of the
// eager window, or the engine declining — falls back to the ordinary seal
// path with nothing accounted.
func (e *Comm) sealToSlot(dst int, buf mpi.Buffer, ctx session.RecordCtx) (mpi.Buffer, bool) {
	if e.slotDeclined || buf.IsSynthetic() || buf.Len() == 0 {
		return mpi.Buffer{}, false
	}
	slot, ok := e.c.AcquireSlot(dst, e.eng.WireLen(buf.Len()))
	if !ok {
		return mpi.Buffer{}, false
	}
	wire, ok := e.sealTo(slot.Data, buf, ctx)
	if !ok {
		e.slotDeclined = true
		slot.Release()
		return mpi.Buffer{}, false
	}
	if e.metrics != nil {
		e.metrics.SealInPlace()
	}
	return slot.Prefix(wire.Len()), true
}

// p2pSendCtx derives the record context of an outgoing point-to-point
// message.
func (e *Comm) p2pSendCtx(dst, tag int) session.RecordCtx {
	return session.RecordCtx{Op: session.OpP2P, Src: e.Rank(), Dst: dst, Tag: tag}
}

// p2pRecvCtx derives the context a received point-to-point record must have
// been sealed under. worldSrc is the matched source in world numbering (what
// the protocol reports before Wait translates it); a source outside this
// communicator maps to an impossible rank so the record cannot authenticate
// — no honest member sealed it for us.
func (e *Comm) p2pRecvCtx(worldSrc, tag int) session.RecordCtx {
	src, ok := e.c.CommRank(worldSrc)
	if !ok {
		src = -2
	}
	return session.RecordCtx{Op: session.OpP2P, Src: src, Dst: e.Rank(), Tag: tag}
}

// collCtx derives a collective record context. Fan-out records (Bcast,
// Allgather) are sealed once for every receiver and carry Dst =
// session.Wildcard; pairwise ones (Alltoall, Alltoallv) bind both ends.
func (e *Comm) collCtx(op session.Op, src, dst int) session.RecordCtx {
	return session.RecordCtx{Op: op, Src: src, Dst: dst}
}

// Rank returns this rank.
func (e *Comm) Rank() int { return e.c.Rank() }

// Size returns the world size.
func (e *Comm) Size() int { return e.c.Size() }

// Engine returns the crypto engine in use.
func (e *Comm) Engine() Engine { return e.eng }

// Unwrap exposes the underlying plaintext communicator (used by the key
// exchange, which must bootstrap before a session key exists).
func (e *Comm) Unwrap() *mpi.Comm { return e.c }

// Request is an encrypted non-blocking operation handle, one object per
// operation: it embeds the protocol request Wait drives and is its hook.
type Request struct {
	inner mpi.Request
	e     *Comm
	// recv marks a receive, whose completion opens the record; a send's
	// completion drops hold: the sealed wire record of an eager send or the
	// caller's payload lease of a chunked one.
	recv bool
	hold mpi.Buffer
	// Chunk-sink state of a receive whose sender chunked: the pooled assembly,
	// the plaintext bytes landed in it, whether the stream is lengths only.
	asm       *bufpool.Lease
	off       int
	synthetic bool
	// aad is lent to the request's records (RecordCtx.Scratch), one at a time.
	aad [session.AADLen]byte
}

// reqPool recycles the blocking operations' requests; non-blocking handles
// are the caller's (mpi.Wait supports concurrent waiters).
var reqPool = sync.Pool{New: func() any { return new(Request) }}

func putRequest(r *Request) {
	if r.inner.Reusable() {
		*r = Request{}
		reqPool.Put(r)
	}
}

// recordHook is the mpi.Hook view of a Request: a defined pointer type, so
// installing it is a conversion of the pointer the operation already holds.
type recordHook Request

// Complete implements mpi.Hook, inside Wait: a send drops the reference it
// held for the wire, a receive opens the record a classic sender delivered.
func (h *recordHook) Complete(wire mpi.Buffer, st mpi.Status, err error) (mpi.Buffer, error) {
	req := (*Request)(h)
	if !req.recv {
		req.hold.Release()
		return mpi.Buffer{}, err
	}
	if err != nil {
		// The receive itself failed; there is no wire buffer to decrypt.
		return mpi.Buffer{}, err
	}
	// Wait translates the status into comm numbering after the hook, so the
	// matched source is still a world rank here.
	e := req.e
	ctx := e.p2pRecvCtx(st.Source, st.Tag)
	ctx.Scratch = &req.aad
	plain, err := e.open(wire, ctx)
	if err != nil {
		wire.Release()
		return mpi.Buffer{}, err
	}
	if !plain.SharesStorage(wire) {
		// Fresh plaintext storage: the request's reference on the wire
		// ciphertext is the last one. Engines that return the wire's own
		// storage (null, the model's prefix) keep it alive through plain.
		wire.Release()
	}
	return plain, nil
}

// Send is Encrypted_Send: seal, then send the wire message. A non-nil error
// matches mpi.ErrTransport: the ciphertext never left this rank cleanly.
// Payloads at or above the pipeline threshold travel chunked (chunked.go),
// sealing each chunk while the previous one is on the wire.
func (e *Comm) Send(dst, tag int, buf mpi.Buffer) error {
	req := reqPool.Get().(*Request)
	e.isend(req, dst, tag, buf)
	_, _, err := e.Wait(req)
	putRequest(req)
	return err
}

// Isend is Encrypted_Isend. Below the pipeline threshold, encryption
// happens eagerly (the payload is captured before the caller reuses its
// buffer) and injection is non-blocking; the sealed record's lease is dropped
// when the send completes (inside Wait), the first point the transport is
// guaranteed done with it. At or above the threshold the chunked overlap path
// seals lazily — chunk by chunk, inside Wait — and the caller must leave the
// buffer untouched until the request completes (the MPI_Isend contract).
func (e *Comm) Isend(dst, tag int, buf mpi.Buffer) *Request {
	req := new(Request)
	e.isend(req, dst, tag, buf)
	return req
}

func (e *Comm) isend(req *Request, dst, tag int, buf mpi.Buffer) {
	req.e = e
	if chunkLen, count, ok := e.chunkPlan(buf.Len()); ok {
		e.isendChunked(req, dst, tag, buf, chunkLen, count)
		return
	}
	ctx := e.p2pSendCtx(dst, tag)
	ctx.Scratch = &req.aad
	// Slot fast path: seal straight into a shm ring slot the receiver opens
	// from. Otherwise seal into a pooled lease: a record carrying a lease (the
	// zero Buffer has none) that is not the caller's is the layer's private
	// capture, injected as it is on every transport; an engine that hands back
	// the caller's storage or a bare length (null, model) leaves the eager
	// capture to the protocol.
	wire, owned := e.sealToSlot(dst, buf, ctx)
	if !owned {
		wire = e.seal(buf, ctx)
		owned = !wire.SharesStorage(buf) && !wire.SharesStorage(mpi.Buffer{})
	}
	req.hold = wire
	e.c.StartSend(&req.inner, (*recordHook)(req), dst, tag, wire, owned)
}

// Irecv is Encrypted_Irecv: it posts the receive for the wire-format message
// and defers decryption to Wait, preserving the non-blocking property
// exactly as the paper's implementation does (§IV): a chunked sender's frames
// are opened one by one as they arrive (recordHook.Chunk), a classic sender's
// ciphertext arrives whole and is opened by recordHook.Complete.
func (e *Comm) Irecv(src, tag int) *Request {
	req := new(Request)
	e.irecv(req, src, tag)
	return req
}

func (e *Comm) irecv(req *Request, src, tag int) {
	req.e, req.recv = e, true
	e.c.StartRecv(&req.inner, (*recordHook)(req), src, tag)
}

// Wait completes a request. For receives it returns the decrypted payload; a
// non-nil error means authentication failed and the data must be discarded.
// Send failures (the transport could not carry a frame, or a chunk failed to
// seal) surface here too, matching mpi.ErrTransport.
func (e *Comm) Wait(req *Request) (mpi.Buffer, mpi.Status, error) {
	return e.c.WaitErr(&req.inner)
}

// Waitall completes all requests, returning the first error encountered
// (all requests are always drained, like MPI_Waitall).
func (e *Comm) Waitall(reqs []*Request) error {
	var firstErr error
	for _, r := range reqs {
		if _, _, err := e.Wait(r); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Recv is Encrypted_Recv: blocking receive plus decryption.
func (e *Comm) Recv(src, tag int) (mpi.Buffer, mpi.Status, error) {
	req := reqPool.Get().(*Request)
	e.irecv(req, src, tag)
	buf, st, err := e.Wait(req)
	putRequest(req)
	return buf, st, err
}

// Sendrecv is the encrypted exchange.
func (e *Comm) Sendrecv(dst, sendTag int, sendBuf mpi.Buffer, src, recvTag int) (mpi.Buffer, mpi.Status, error) {
	rreq := e.Irecv(src, recvTag)
	sreq := e.Isend(dst, sendTag, sendBuf)
	buf, st, err := e.Wait(rreq)
	if _, _, serr := e.Wait(sreq); serr != nil && err == nil {
		err = serr
	}
	return buf, st, err
}

// Barrier passes through: it carries no user data to protect.
func (e *Comm) Barrier() { e.c.Barrier() }

// Bcast is Encrypted_Bcast: the root seals once, the ciphertext travels the
// broadcast tree unmodified, and every non-root rank decrypts — one
// encryption or decryption per rank, as in the paper's analysis (§V-A).
func (e *Comm) Bcast(root int, buf mpi.Buffer) (mpi.Buffer, error) {
	// One ciphertext reaches every rank: the record binds the root as its
	// sealer and leaves the receiver unbound (Wildcard).
	ctx := e.collCtx(session.OpBcast, root, session.Wildcard)
	var wire mpi.Buffer
	if e.Rank() == root {
		wire = e.seal(buf, ctx)
	}
	wire = e.c.Bcast(root, wire)
	if e.Rank() == root {
		return buf, nil
	}
	return e.open(wire, ctx)
}

// Allgather is Encrypted_Allgather: seal the local block, allgather the
// ciphertexts, decrypt all of them (including our own, which made the round
// trip as ciphertext).
func (e *Comm) Allgather(myBlock mpi.Buffer) ([]mpi.Buffer, error) {
	return e.allgather(session.OpAllgather, "allgather", e.c.Allgather, myBlock)
}

// Allgatherv is Encrypted_Allgatherv: Allgather with ragged block sizes.
func (e *Comm) Allgatherv(myBlock mpi.Buffer) ([]mpi.Buffer, error) {
	return e.allgather(session.OpAllgatherv, "allgatherv", e.c.Allgatherv, myBlock)
}

func (e *Comm) allgather(op session.Op, name string, gather func(mpi.Buffer) []mpi.Buffer, myBlock mpi.Buffer) ([]mpi.Buffer, error) {
	gathered := gather(e.seal(myBlock, e.collCtx(op, e.Rank(), session.Wildcard)))
	out := make([]mpi.Buffer, len(gathered))
	for i, w := range gathered {
		plain, err := e.open(w, e.collCtx(op, i, session.Wildcard))
		if err != nil {
			return nil, fmt.Errorf("encmpi: %s block %d: %w", name, i, err)
		}
		out[i] = plain
	}
	return out, nil
}

// Alltoall is Encrypted_Alltoall, a direct transcription of Algorithm 1:
// each outgoing block is sealed under a fresh nonce, the ordinary alltoall
// moves the (ℓ+28)-byte ciphertext blocks, and each incoming block is
// decrypted.
func (e *Comm) Alltoall(blocks []mpi.Buffer) ([]mpi.Buffer, error) {
	return e.alltoall(session.OpAlltoall, "alltoall", e.c.Alltoall, blocks)
}

// Alltoallv is Encrypted_Alltoallv: identical to Alltoall but with ragged
// block sizes (each wire block is its plaintext length plus 28).
func (e *Comm) Alltoallv(blocks []mpi.Buffer) ([]mpi.Buffer, error) {
	return e.alltoall(session.OpAlltoallv, "alltoallv", e.c.Alltoallv, blocks)
}

func (e *Comm) alltoall(op session.Op, name string, exchange func([]mpi.Buffer) []mpi.Buffer, blocks []mpi.Buffer) ([]mpi.Buffer, error) {
	encSend := make([]mpi.Buffer, len(blocks))
	for i, b := range blocks {
		encSend[i] = e.seal(b, e.collCtx(op, e.Rank(), i))
	}
	encRecv := exchange(encSend)
	out := make([]mpi.Buffer, len(encRecv))
	for i, w := range encRecv {
		plain, err := e.open(w, e.collCtx(op, i, e.Rank()))
		if err != nil {
			return nil, fmt.Errorf("encmpi: %s block %d: %w", name, i, err)
		}
		out[i] = plain
	}
	return out, nil
}
