package mpi

import (
	"fmt"

	"encmpi/internal/obs"
)

// Isend starts a non-blocking send of buf to dst with the given tag and
// returns a request that completes when the send buffer is reusable.
func (c *Comm) Isend(dst, tag int, buf Buffer) *Request {
	return c.isend(dst, tag, c.ctxUser, buf)
}

func (c *Comm) isend(dst, tag, ctx int, buf Buffer) *Request {
	req := getRequest()
	c.startSend(req, nil, dst, tag, ctx, buf, false)
	return req
}

// StartSend is Isend on request storage the caller provides (the layered
// request req is embedded in), with that request's hook installed before the
// send is visible to anyone. owned declares buf the caller's private capture,
// immutable and unshared until the send completes — sealed ciphertext in a
// pooled or transport-slot buffer: the eager path injects the buffer itself
// instead of cloning it (transport and matcher retain it while they need it;
// the caller releases its own reference after completion). A leaseless owned
// buffer would leave the receiver's payload aliasing the caller's storage.
func (c *Comm) StartSend(req *Request, h Hook, dst, tag int, buf Buffer, owned bool) {
	c.startSend(req, h, dst, tag, c.ctxUser, buf, owned)
}

func (c *Comm) startSend(req *Request, h Hook, dst, tag, ctx int, buf Buffer, owned bool) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	c.metrics.Op(obs.OpIsend)
	wdst := c.worldOf(dst)
	wsrc := c.st.rank
	*req = Request{kind: reqSend, src: wdst, tag: tag, ctx: ctx, lane: c.lane, owner: c.st, comm: c, owned: owned, hook: h}

	if buf.Len() < c.w.eager {
		// Eager: inject immediately. A borrowed payload is captured first (a
		// transport slot or a pooled clone) so the caller may reuse its
		// buffer — MPI's buffered-eager semantics; an owned one travels as it
		// is. The protocol retains the capture on delivery if it is kept, so
		// the creator reference is dropped once Send returns.
		//
		// The request completes when the transport signals local completion —
		// synchronously inside Send for the in-process transport, after the
		// flush for the TCP wire engine — so a queued frame that later dies
		// on a broken connection fails exactly this request.
		st := c.st
		inj := buf
		if !owned {
			inj = c.eagerCapture(wsrc, wdst, buf)
		}
		m := getMsg()
		*m = Msg{
			Src: wsrc, Dst: wdst, Tag: tag, Ctx: ctx, Kind: KindEager, Lane: c.lane, Buf: inj,
			Done: (*sendDone)(req),
		}
		err := c.w.tr.Send(c.proc, m)
		putMsg(m)
		if !owned {
			inj.Release()
		}
		if err != nil {
			st.mu.Lock()
			if !req.done {
				req.failLocked(transportErr(err))
			}
			st.mu.Unlock()
		}
		return
	}

	// Rendezvous: announce with an RTS and wait for the receiver's CTS; the
	// payload travels only after the receiver has a matching buffer posted.
	seq := c.w.nextSeq()
	req.seq = seq
	req.buf = buf
	st := c.st
	st.mu.Lock()
	st.rndvSend[seq] = req
	st.mu.Unlock()
	rts := getMsg()
	*rts = Msg{
		Src: wsrc, Dst: wdst, Tag: tag, Ctx: ctx, Kind: KindRTS, Seq: seq, Lane: c.lane, DataLen: buf.Len(),
		// A queued RTS that dies on the wire means the receiver will never
		// answer with a CTS: fail the send instead of parking it forever.
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

// eagerCapture copies an eager payload into storage the protocol may keep:
// a transport-owned slot when the transport offers one (a single copy
// straight into the shm ring slab), else a pooled clone. The returned buffer
// carries one reference owned by the caller either way.
func (c *Comm) eagerCapture(wsrc, wdst int, buf Buffer) Buffer {
	if c.w.slot != nil && !buf.IsSynthetic() && buf.N > 0 {
		if s, ok := c.w.slot.AcquireSlot(wsrc, wdst, buf.N); ok {
			copy(s.Data, buf.Data)
			c.metrics.SlotDirectEager()
			return s
		}
	}
	return buf.Clone()
}

// Send is the blocking send: it returns when the buffer is reusable. A
// non-nil error matches ErrTransport and means the message never left this
// rank cleanly (the connection was missing or the write failed).
func (c *Comm) Send(dst, tag int, buf Buffer) error {
	req := c.Isend(dst, tag, buf)
	_, _, err := c.WaitErr(req)
	putRequest(req)
	return err
}

// Irecv posts a non-blocking receive matching (src, tag); src may be
// AnySource and tag may be AnyTag.
func (c *Comm) Irecv(src, tag int) *Request {
	return c.irecv(src, tag, c.ctxUser)
}

func (c *Comm) irecv(src, tag, ctx int) *Request {
	req := getRequest()
	c.startRecv(req, nil, src, tag, ctx)
	return req
}

// StartRecv is Irecv on request storage the caller provides, with the hook
// installed atomically with the post: no other waiter on this rank can
// observe the receive without it.
func (c *Comm) StartRecv(req *Request, h Hook, src, tag int) {
	c.startRecv(req, h, src, tag, c.ctxUser)
}

func (c *Comm) startRecv(req *Request, h Hook, src, tag, ctx int) {
	if src != AnySource && (src < 0 || src >= c.Size()) {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", src))
	}
	c.metrics.Op(obs.OpIrecv)
	wsrc := src
	if src != AnySource {
		wsrc = c.worldOf(src)
	}
	*req = Request{kind: reqRecv, src: wsrc, tag: tag, ctx: ctx, lane: c.lane, owner: c.st, comm: c, hook: h}

	st := c.st
	var cts *Msg
	st.mu.Lock()
	if m := st.matchUnexpectedLocked(req); m != nil {
		switch m.Kind {
		case KindEager:
			// completeRecvLocked retains the payload for the request; the
			// unexpected queue's reference is dropped after the transfer and
			// the queue's pooled Msg copy recycles.
			req.completeRecvLocked(m)
			m.Buf.Release()
			putMsg(m)
		case KindRTS:
			req.seq = m.Seq
			req.armChunksLocked(m)
			st.rndvRecv[m.Seq] = req
			cts = getMsg()
			*cts = Msg{
				Src: c.st.rank, Dst: m.Src, Tag: m.Tag, Ctx: m.Ctx, Kind: KindCTS, Seq: m.Seq, Lane: m.Lane,
				// A queued CTS that dies on the wire means the sender will
				// never transmit: fail the receive instead of parking forever.
				Done: (*ctsDone)(req),
			}
			putMsg(m)
		default:
			st.mu.Unlock()
			panic(fmt.Sprintf("mpi: %v message in unexpected queue", m.Kind))
		}
	} else {
		st.posted = append(st.posted, req)
	}
	st.mu.Unlock()

	if cts != nil {
		err := c.w.tr.Send(c.proc, cts)
		putMsg(cts)
		if err != nil {
			// The sender will never learn it may transmit: fail the receive
			// instead of leaving it parked forever.
			st.mu.Lock()
			if !req.done {
				delete(st.rndvRecv, req.seq)
				req.failLocked(transportErr(err))
			}
			st.mu.Unlock()
		}
	}
}

// Wait blocks until the request completes. For receives it returns the
// payload and status.
func (c *Comm) Wait(req *Request) (Buffer, Status) {
	buf, status, _ := c.WaitErr(req)
	return buf, status
}

// WaitErr is Wait that also hands back why the request failed (Request.Err).
// If the request carries a hook (the encrypted layer's deferred decryption),
// its Complete runs here, in the waiter's context, exactly once — claimed
// under the rank lock, so concurrent waiters on one request neither run it
// twice nor return before its result is stored.
//
// Wait is also the rank's chunk progress engine: while the request is
// pending, this rank's chunked rendezvous work (sealing the next outbound
// chunk, opening an arrived one) runs here, on the waiting goroutine, instead
// of parking — overlapping crypto with the wire (DESIGN.md §12).
func (c *Comm) WaitErr(req *Request) (Buffer, Status, error) {
	if req.owner != c.st {
		panic("mpi: waiting on a request owned by another rank")
	}
	c.metrics.Op(obs.OpWait)
	st := c.st
	// Blocked time is measured from the first failed completion check to the
	// final successful one, via the proc clock — wall time on real
	// transports, virtual time under the simulator. A request that is already
	// done costs no clock reads; progressing chunk work is not blocked time.
	var blockedFrom int64 = -1
	var hook Hook
	var buf Buffer
	var status Status
	var err error
	for {
		st.mu.Lock()
		if req.done {
			if req.hook != nil && !req.completed {
				req.completed = true
				hook, buf, status, err = req.hook, req.buf, req.status, req.err
				st.mu.Unlock()
				break
			}
			if req.hook == nil || req.hookDone {
				st.mu.Unlock()
				break
			}
			// Another waiter claimed the hook and is still running it:
			// park until it finishes (its exit baton wakes us).
		} else if u, ok := st.claimChunkLocked(); ok {
			st.mu.Unlock()
			c.runChunkUnit(u)
			continue
		}
		st.mu.Unlock()
		if c.metrics != nil && blockedFrom < 0 {
			blockedFrom = int64(c.proc.Now())
		}
		c.proc.Park()
	}
	if blockedFrom >= 0 {
		c.metrics.Wait(int64(c.proc.Now()) - blockedFrom)
	}
	if hook != nil {
		buf, err = hook.Complete(buf, status, err)
		st.mu.Lock()
		req.buf, req.status.Len, req.err, req.hookDone = buf, buf.Len(), err, true
		st.mu.Unlock()
	}
	// One last critical section reads the outcome, error included, so no
	// caller re-locks for Err. Folding it into those above is a further saving,
	// held back (ROADMAP item 2; EXPERIMENTS.md "Eager record path").
	st.mu.Lock()
	buf, status, err = req.buf, req.status, req.err
	st.mu.Unlock()
	// Wake baton: a single Unpark wakes at most one parked goroutine, so
	// every waiter leaving Wait passes the wake along in case another waiter
	// on this rank is still parked (spurious wakeups are allowed).
	st.proc.Unpark()
	if req.kind == reqRecv && req.comm != nil && status.Len >= 0 {
		// Report the source in this communicator's numbering.
		if status.Source >= 0 {
			status.Source = req.comm.commOf(status.Source)
		}
	}
	return buf, status, err
}

// Waitall completes all requests, in posting order. Like MPI_Waitall it
// always drains every request; the returned error is the first failure
// encountered (matching ErrTransport for transport faults).
func (c *Comm) Waitall(reqs []*Request) error {
	var firstErr error
	for _, r := range reqs {
		if _, _, err := c.WaitErr(r); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Recv is the blocking receive.
func (c *Comm) Recv(src, tag int) (Buffer, Status) {
	req := c.Irecv(src, tag)
	buf, status := c.Wait(req)
	putRequest(req)
	return buf, status
}

// Sendrecv performs the classic exchange: a send and a receive that progress
// concurrently, avoiding the head-to-head deadlock of two blocking sends.
func (c *Comm) Sendrecv(dst, sendTag int, sendBuf Buffer, src, recvTag int) (Buffer, Status) {
	return c.sendrecvCtx(dst, sendTag, sendBuf, src, recvTag, c.ctxUser)
}

// sendrecvCtx is Sendrecv on the given context (the collectives' own).
func (c *Comm) sendrecvCtx(dst, sendTag int, sendBuf Buffer, src, recvTag, ctx int) (Buffer, Status) {
	rreq := c.irecv(src, recvTag, ctx)
	sreq := c.isend(dst, sendTag, ctx, sendBuf)
	buf, status := c.Wait(rreq)
	c.Wait(sreq)
	putRequest(rreq)
	putRequest(sreq)
	return buf, status
}

// BufferOf and StatusOf return the request's payload and receive status,
// valid once Wait or Waitall has returned the request.
func (r *Request) BufferOf() Buffer { return r.buf }
func (r *Request) StatusOf() Status { return r.status }
