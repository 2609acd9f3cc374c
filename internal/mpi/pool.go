package mpi

import "sync"

// The protocol's two hot-path bookkeeping structs — the wire Msg and the
// Request — recycle through sync.Pools, like the payload leases.
//
// Msg pooling leans on the Transport contract: neither Send nor Deliver may
// retain the *Msg after returning, so the creator can recycle it as soon as
// Send comes back. Deliver upholds its half by queueing private copies
// (drawn from this same pool) on the unexpected path.
//
// Request pooling is narrower, because requests are handed to callers as
// handles: only the blocking wrappers (Send/Recv/Sendrecv and the collective
// internals), which own their requests end to end, recycle them — and only
// on clean completion (Request.Reusable). The no-op Injected views (rtsDone,
// ctsDone) make late successes harmless by construction.

var msgPool = sync.Pool{New: func() any { return new(Msg) }}

// getMsg leases a zeroed-or-overwritten Msg; callers assign the full struct.
func getMsg() *Msg { return msgPool.Get().(*Msg) }

// putMsg recycles a Msg the caller fully owns (nothing retains the pointer).
func putMsg(m *Msg) {
	*m = Msg{}
	msgPool.Put(m)
}

var reqPool = sync.Pool{New: func() any { return new(Request) }}

// getRequest leases a Request; callers assign the full struct.
func getRequest() *Request { return reqPool.Get().(*Request) }

// putRequest recycles a request after Wait returned it, for callers certain
// the handle never escaped (the blocking wrappers). Requests that are not
// Reusable fall to the GC; hooked storage was never this pool's.
func putRequest(r *Request) {
	if r == nil || !r.Reusable() || r.hook != nil {
		return
	}
	*r = Request{}
	reqPool.Put(r)
}
