package mpi

import (
	"fmt"

	"encmpi/internal/bufpool"
	"encmpi/internal/obs"
)

// Chunked rendezvous: the multi-frame variant of the RTS/CTS protocol that
// overlaps per-chunk work (sealing, opening) with the wire (DESIGN.md §12).
// The RTS announces a chunk count alongside the byte total; after the CTS
// the sender emits the payload as independent DataSeg frames, producing
// chunk k+1 while the transport drains chunk k, and the receiver consumes
// frames inside Wait as they arrive instead of after the whole payload has
// landed. Production and consumption both run on the waiting rank's own
// goroutine — the only place modeled crypto cost (proc.Advance) may be
// charged — driven by the progress engine in Wait.

// StartSendChunks starts a non-blocking chunked rendezvous send of count
// chunks totalling wireTotal bytes on request storage the caller provides
// (see StartSend; h may be nil). src is called for k = 0 … count-1, in
// order, at most once each, from a goroutine of this rank that is inside
// Wait; it returns chunk k's payload carrying one reference that the protocol
// releases after the transport accepts the frame. The chunk lengths must sum
// to exactly wireTotal — the receiver rejects anything else as malformed. The
// request completes when every chunk has drained from this rank's adapter;
// whatever storage src reads from must stay valid until then.
func (c *Comm) StartSendChunks(req *Request, h Hook, dst, tag int, wireTotal, count int, src func(k int) (Buffer, error)) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	if count <= 0 || wireTotal < 0 {
		panic(fmt.Sprintf("mpi: chunked send of %d bytes in %d chunks", wireTotal, count))
	}
	c.metrics.Op(obs.OpIsend)
	wdst := c.worldOf(dst)
	wsrc := c.st.rank
	*req = Request{kind: reqSend, src: wdst, tag: tag, ctx: c.ctxUser, lane: c.lane, owner: c.st, comm: c, hook: h}
	req.chunks = &chunkState{count: count, wireTotal: wireTotal, src: src}
	seq := c.w.nextSeq()
	req.seq = seq
	st := c.st
	st.mu.Lock()
	st.rndvSend[seq] = req
	st.mu.Unlock()
	rts := getMsg()
	*rts = Msg{
		Src: wsrc, Dst: wdst, Tag: tag, Ctx: c.ctxUser,
		Kind: KindRTS, Seq: seq, Lane: c.lane, DataLen: wireTotal, Chunks: count,
		Done: (*rtsDone)(req),
	}
	err := c.w.tr.Send(c.proc, rts)
	putMsg(rts)
	if err != nil {
		st.mu.Lock()
		if !req.done {
			delete(st.rndvSend, seq)
			req.failLocked(transportErr(err))
		}
		st.mu.Unlock()
	}
}

// armChunksLocked turns a receive into a chunked one when the RTS announced
// chunking. Caller holds owner.mu.
func (r *Request) armChunksLocked(m *Msg) {
	if m.Chunks <= 0 {
		return
	}
	r.chunks = &chunkState{count: m.Chunks, wireTotal: m.DataLen, from: m.Src, tag: m.Tag}
}

// chunkUnit is one claimed unit of chunk progress, extracted under the rank
// lock and executed outside it.
type chunkUnit struct {
	req  *Request
	send bool
	k    int
	// chunk is the arrived wire chunk to consume (receive units only); the
	// claim transfers the queue's reference to the unit's runner.
	chunk Buffer
	// overlapped marks work that runs while the wire is still busy with
	// this exchange (earlier chunks not yet drained on the send side, later
	// chunks still inbound on the receive side) — the time the pipeline
	// actually hides, reported to obs.
	overlapped bool
}

// claimChunkLocked extracts one unit of chunk work from the rank's list, or
// reports none. Entries whose exchange can produce no further work are
// unlisted in passing. Caller holds st.mu.
func (st *rankState) claimChunkLocked() (chunkUnit, bool) {
	for i := 0; i < len(st.chunkWork); {
		req := st.chunkWork[i]
		cs := req.chunks
		done := req.done ||
			(req.kind == reqSend && cs.produced == cs.count) ||
			(req.kind == reqRecv && cs.opened == cs.count)
		if done {
			cs.listed = false
			st.chunkWork = append(st.chunkWork[:i], st.chunkWork[i+1:]...)
			continue
		}
		if !cs.busy {
			if req.kind == reqSend && cs.ready && cs.produced < cs.count {
				cs.busy = true
				return chunkUnit{
					req: req, send: true, k: cs.produced,
					overlapped: cs.injected < cs.produced,
				}, true
			}
			if req.kind == reqRecv && cs.opened < cs.arrived {
				k := cs.opened
				chunk := cs.queue[k]
				cs.queue[k] = Buffer{}
				cs.busy = true
				return chunkUnit{
					req: req, k: k, chunk: chunk,
					overlapped: cs.arrived < cs.count,
				}, true
			}
		}
		i++
	}
	return chunkUnit{}, false
}

// runChunkUnit executes one claimed unit on the calling goroutine. No locks
// are held while the chunk callback (seal or open) and the transport run.
func (c *Comm) runChunkUnit(u chunkUnit) {
	if u.send {
		c.runChunkSend(u)
	} else {
		c.runChunkOpen(u)
	}
}

// runChunkSend produces chunk k and hands it to the transport.
func (c *Comm) runChunkSend(u chunkUnit) {
	req := u.req
	cs := req.chunks
	st := req.owner
	var start int64
	if u.overlapped && c.metrics != nil {
		start = int64(c.proc.Now())
	}
	buf, srcErr := cs.src(u.k)
	if u.overlapped && c.metrics != nil {
		c.metrics.PipeSealOverlap(int64(c.proc.Now()) - start)
	}
	var sendErr error
	if srcErr == nil {
		m := getMsg()
		*m = Msg{
			Src: st.rank, Dst: req.src, Tag: req.tag, Ctx: req.ctx,
			Kind: KindDataSeg, Seq: req.seq, Lane: req.lane, DataLen: u.k, Chunks: cs.count,
			Buf: buf, Done: (*chunkDone)(req),
		}
		sendErr = c.w.tr.Send(c.proc, m)
		putMsg(m)
		buf.Release()
	}
	st.mu.Lock()
	cs.busy = false
	switch {
	case srcErr != nil:
		if !req.done {
			req.failLocked(srcErr)
		}
	case sendErr != nil:
		if !req.done {
			req.failLocked(transportErr(sendErr))
		}
	default:
		cs.produced = u.k + 1
		c.metrics.PipeChunkSent(cs.produced - cs.injected)
		// The final chunk may have drained synchronously inside Send, while
		// produced still read one short — complete here in that case.
		if !req.done && cs.produced == cs.count && cs.injected == cs.count {
			req.done = true
		}
	}
	st.mu.Unlock()
	st.proc.Unpark()
}

// runChunkOpen consumes one arrived chunk through the request's hook (or
// the raw assembly below when none is installed).
func (c *Comm) runChunkOpen(u chunkUnit) {
	req := u.req
	cs := req.chunks
	st := req.owner
	var start int64
	if u.overlapped && c.metrics != nil {
		start = int64(c.proc.Now())
	}
	var out Buffer
	var err error
	if req.hook != nil {
		out, err = req.hook.Chunk(u.k, cs.count, cs.wireTotal, cs.from, cs.tag, u.chunk)
	} else {
		out, err = cs.assemble(u.k, u.chunk)
	}
	if u.overlapped && c.metrics != nil {
		c.metrics.PipeOpenOverlap(int64(c.proc.Now()) - start)
	}
	u.chunk.Release()
	st.mu.Lock()
	cs.busy = false
	cs.opened = u.k + 1
	c.metrics.PipeChunkOpened()
	switch {
	case req.done:
		// The exchange failed while this chunk was being opened (a later
		// frame was malformed): discard whatever the sink produced.
		out.Release()
		cs.asm.Release()
		cs.asm = Buffer{}
	case err != nil:
		req.failLocked(err)
	case cs.opened == cs.count:
		req.buf = out
		req.status = Status{Source: cs.from, Tag: cs.tag, Len: out.Len()}
		req.done = true
		// The hook already consumed the payload chunk by chunk: suppress
		// its whole-message Complete so Wait does not run a stale decrypt
		// over the assembled plaintext.
		req.completed = true
		req.hookDone = true
	}
	st.mu.Unlock()
	st.proc.Unpark()
}

// assemble is the hookless consumer: chunks are copied into one pooled buffer of
// the announced total. It runs under the busy flag, never concurrently for
// one exchange. Synthetic chunks (simulation) assemble into a synthetic
// total.
func (cs *chunkState) assemble(k int, chunk Buffer) (Buffer, error) {
	if chunk.IsSynthetic() {
		cs.asmOff += chunk.Len()
		if k == cs.count-1 {
			off := cs.asmOff
			cs.asmOff = 0
			return Synthetic(off), nil
		}
		return Buffer{}, nil
	}
	if k == 0 {
		cs.asm = PooledBytes(bufpool.Get(cs.wireTotal), cs.wireTotal)
		cs.asmOff = 0
	}
	// Deliver already bounded got by wireTotal, so the copy cannot overrun.
	copy(cs.asm.Data[cs.asmOff:], chunk.Data)
	cs.asmOff += chunk.Len()
	if k == cs.count-1 {
		out := cs.asm
		cs.asm = Buffer{}
		return out, nil
	}
	return Buffer{}, nil
}
