package mpi

// reqKind tells send and receive requests apart.
type reqKind uint8

const (
	reqSend reqKind = iota
	reqRecv
)

// Request is a non-blocking operation handle (the analogue of MPI_Request).
type Request struct {
	kind reqKind
	// Matching pattern for receives (may hold wildcards); concrete
	// destination coordinates for sends.
	src, tag, ctx int
	// lane is the traffic stream the request belongs to (see Msg.Lane): its
	// messages are stamped with it and its matching requires equality.
	lane uint16

	// seq is set for rendezvous exchanges.
	seq uint64

	// owned marks a send whose caller transferred buffer ownership
	// (StartSend): the payload may travel zero-copy even over an
	// inline-delivery transport, because the caller promised not to touch
	// the storage again. Borrowed sends get a private copy there instead.
	owned bool

	// buf: for sends, the payload; for completed receives, the data.
	buf Buffer

	// status fields of a completed receive.
	status Status

	// err records why the request failed (a transport send failure, wrapped
	// in ErrTransport); a failed request is also done.
	err error

	done bool

	// owner is the rank state whose mutex guards this request.
	owner *rankState
	// comm is the communicator that created the request; Wait uses it to
	// translate the status source into comm-rank numbering.
	comm *Comm

	// hook, when non-nil, is the layered request this one is embedded in
	// (see Hook); set once, before the request is published. completed marks
	// its Complete as claimed (set under owner.mu, exactly once); hookDone
	// marks it finished, so concurrent waiters neither run it twice nor
	// return before its result is stored.
	hook      Hook
	completed bool
	hookDone  bool

	// chunks holds the progress state of a chunked rendezvous exchange
	// (StartSendChunks on the send side, an RTS with Chunks > 0 on the receive
	// side); nil for every other request. Guarded by owner.mu.
	chunks *chunkState
}

// Hook is what a layered request (the encrypted layer's) installs on the
// protocol request it embeds: an interface, so the layer hands over a pointer
// it already holds where a closure per operation would allocate.
type Hook interface {
	// Complete runs inside Wait, in the waiter's context, exactly once, when
	// the request has finished (the encrypted layer decrypts here, preserving
	// the non-blocking property — paper §IV) — unless Chunk already consumed
	// the payload. buf, st and err are the request's outcome (st.Source in
	// world numbering); what it returns replaces buf and err on the request.
	Complete(buf Buffer, st Status, err error) (Buffer, error)

	// Chunk consumes the chunks of a chunked rendezvous receive, in order,
	// inside Wait. k is the chunk index, count the announced chunk count,
	// wireTotal the announced byte total, and src/tag the exchange's
	// coordinates from the RTS (src in world numbering) — the session layer
	// derives each chunk's AAD from them. chunk is the hook's for the call
	// only. The final call (k == count-1) returns the assembled message,
	// carrying one reference owned by the request; earlier calls return the
	// zero Buffer. An error fails the receive with that error.
	Chunk(k, count, wireTotal, src, tag int, chunk Buffer) (Buffer, error)
}

// chunkState tracks one chunked rendezvous exchange on its request. All
// fields are guarded by the owner rankState's mutex except where noted; the
// busy flag serializes out-of-lock work (sealing the next chunk, opening an
// arrived one) so chunks are produced and consumed strictly in order even
// with several goroutines waiting on the rank.
type chunkState struct {
	count int
	busy  bool

	// Send side: src produces chunk k's wire buffer (one reference handed
	// to the protocol). ready is set when the CTS arrives; produced counts
	// chunks handed to the transport, injected chunks the transport has
	// drained. The send completes at produced == injected == count.
	src      func(k int) (Buffer, error)
	ready    bool
	produced int
	injected int

	// Recv side: frames are validated and queued by Deliver; the waiter
	// opens them via the request's hook (or assembles them raw without one).
	wireTotal int // announced total wire bytes across all chunks
	got       int // wire bytes accepted so far
	arrived   int // frames accepted (also the next expected index)
	opened    int // frames consumed by the hook
	queue     []Buffer
	listed    bool // request is on the rank's chunkWork list
	from, tag int  // status coordinates captured from the RTS

	// Hookless assembly: chunks are copied into one pooled buffer of
	// wireTotal bytes.
	asm    Buffer
	asmOff int
}

// releaseQueuedLocked drops the queue's references on any chunks that
// arrived but were never consumed (the failure path). A chunk claimed by an
// in-flight worker has been zeroed out of its slot, and the worker both
// releases it and cleans up the assembly buffer itself when it relocks and
// observes the failure — so a busy exchange's asm is left alone here.
// Caller holds owner.mu.
func (cs *chunkState) releaseQueuedLocked() {
	for i := cs.opened; i < len(cs.queue); i++ {
		cs.queue[i].Release()
		cs.queue[i] = Buffer{}
	}
	cs.opened = len(cs.queue)
	if !cs.busy {
		cs.asm.Release() // no-op unless the hookless assembly had started
		cs.asm = Buffer{}
	}
}

// Done reports (racily, for tests and polling) whether the request finished.
func (r *Request) Done() bool {
	r.owner.mu.Lock()
	defer r.owner.mu.Unlock()
	return r.done
}

// Err reports why a completed request failed: nil for success, an error
// matching ErrTransport when the transport could not carry the operation's
// traffic, or what its hook reported. Valid once Wait has returned.
func (r *Request) Err() error {
	r.owner.mu.Lock()
	defer r.owner.mu.Unlock()
	return r.err
}

// Reusable reports whether a request Wait has returned left no reference in
// the protocol (a failed one may be held by late completion views, a chunked
// one by the work list), so its storage may be started again.
func (r *Request) Reusable() bool { return r.err == nil && r.chunks == nil }

// The completion views below are what the protocol hands transports as
// Msg.Done: each is a defined pointer type over Request, so building one is a
// conversion of a pointer the protocol already holds — no per-message closure
// allocations on the send hot path. Every method re-derives its state from
// the request (owner holds the guarding mutex and the rank's proc, seq the
// rendezvous exchange).

// sendDone completes a send request whose payload frame drained (an eager
// clone or a rendezvous DATA), or fails it if the frame died on the wire.
type sendDone Request

// Injected marks the send complete and wakes the sender.
func (d *sendDone) Injected() {
	r := (*Request)(d)
	st := r.owner
	st.mu.Lock()
	r.done = true
	st.mu.Unlock()
	st.proc.Unpark()
}

// Failed fails the send, unless a synchronous failure already did.
func (d *sendDone) Failed(err error) {
	r := (*Request)(d)
	st := r.owner
	st.mu.Lock()
	if !r.done {
		r.failLocked(transportErr(err))
	}
	st.mu.Unlock()
	st.proc.Unpark()
}

// rtsDone watches a rendezvous RTS announcement: the frame draining means
// nothing locally (the send completes when DATA drains), but an RTS that
// dies on the wire means the receiver will never answer with a CTS — fail
// the send instead of parking it forever.
type rtsDone Request

// Injected is a no-op: an RTS on the wire does not complete the send.
func (d *rtsDone) Injected() {}

// Failed removes the send from the rendezvous table and fails it.
func (d *rtsDone) Failed(err error) {
	r := (*Request)(d)
	st := r.owner
	st.mu.Lock()
	if q, ok := st.rndvSend[r.seq]; ok && q == r && !r.done {
		delete(st.rndvSend, r.seq)
		r.failLocked(transportErr(err))
	}
	st.mu.Unlock()
	st.proc.Unpark()
}

// ctsDone watches a rendezvous CTS reply: a queued CTS that dies on the wire
// leaves the sender silent forever, so the receive fails instead of parking.
type ctsDone Request

// Injected is a no-op: a CTS on the wire does not complete the receive.
func (d *ctsDone) Injected() {}

// Failed removes the receive from the rendezvous table and fails it.
func (d *ctsDone) Failed(err error) {
	r := (*Request)(d)
	st := r.owner
	st.mu.Lock()
	if q, ok := st.rndvRecv[r.seq]; ok && q == r && !r.done {
		delete(st.rndvRecv, r.seq)
		r.failLocked(transportErr(err))
	}
	st.mu.Unlock()
	st.proc.Unpark()
}

// chunkDone completes one DataSeg frame of a chunked rendezvous send: the
// send request finishes when every chunk has both been produced and drained
// from the wire, and a chunk that dies on the wire fails the whole exchange.
type chunkDone Request

// Injected counts one drained chunk and completes the send when it was the
// last one.
func (d *chunkDone) Injected() {
	r := (*Request)(d)
	st := r.owner
	st.mu.Lock()
	cs := r.chunks
	cs.injected++
	if !r.done && cs.injected == cs.count && cs.produced == cs.count {
		r.done = true
	}
	st.mu.Unlock()
	st.proc.Unpark()
}

// Failed fails the send, unless it already completed or failed.
func (d *chunkDone) Failed(err error) {
	r := (*Request)(d)
	st := r.owner
	st.mu.Lock()
	if !r.done {
		r.failLocked(transportErr(err))
	}
	st.mu.Unlock()
	st.proc.Unpark()
}

// failLocked completes the request with an error, dropping any chunk-queue
// references the exchange still held. Caller holds owner.mu.
func (r *Request) failLocked(err error) {
	r.err = err
	r.done = true
	if r.chunks != nil {
		r.chunks.releaseQueuedLocked()
	}
}

// completeRecvLocked fills in a matched message, retaining the payload's
// pool lease on behalf of the request (the transport or sender releases its
// own reference after delivery). Caller holds owner.mu.
func (r *Request) completeRecvLocked(m *Msg) {
	m.Buf.Retain()
	r.buf = m.Buf
	r.status = Status{Source: m.Src, Tag: m.Tag, Len: m.Buf.Len()}
	r.done = true
}
