// Package mpi is a from-scratch MPI-style message-passing runtime: ranks,
// tag/source matching with wildcards, eager and rendezvous point-to-point
// protocols, non-blocking requests, and the collective operations the paper
// encrypts (Bcast, Allgather, Alltoall, Alltoallv) plus the ones the NAS
// kernels need (Reduce, Allreduce, Barrier, Gather, Scatter).
//
// The runtime is transport-agnostic: the same code runs over an in-process
// shared-memory transport, a real TCP transport, and the discrete-event
// simulated fabric, because all blocking goes through the sched.Proc
// abstraction. This package plays the role MPICH-3.2.1 and MVAPICH2-2.3 play
// in the paper.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"encmpi/internal/bufpool"
	"encmpi/internal/obs"
	"encmpi/internal/sched"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Context identifiers separate point-to-point and collective traffic, the
// way MPI context ids isolate communicators.
const (
	CtxUser = 0
	CtxColl = 1
)

// Kind distinguishes wire message types of the point-to-point protocol.
type Kind uint8

// Protocol message kinds.
const (
	KindEager   Kind = iota // payload inline, buffered if unexpected
	KindRTS                 // rendezvous request-to-send (carries payload size)
	KindCTS                 // rendezvous clear-to-send
	KindData                // rendezvous payload (whole message)
	KindDataSeg             // one chunk of a chunked rendezvous payload
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindEager:
		return "EAGER"
	case KindRTS:
		return "RTS"
	case KindCTS:
		return "CTS"
	case KindData:
		return "DATA"
	case KindDataSeg:
		return "DATASEG"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Buffer is a message payload. In real mode Data holds the bytes; in
// simulation mode Data is nil and only the length N is tracked, so 4 MB
// alltoalls across 64 ranks cost no memory.
//
// A Buffer may additionally carry a bufpool lease when its storage came from
// the pooled hot path (TCP frames, engine Seal/Open outputs, eager clones).
// Copying the Buffer value shares the lease; the reference count is managed
// explicitly via Retain/Release at the ownership points documented in
// DESIGN.md §9. A buffer without a lease is inert under both calls.
type Buffer struct {
	Data []byte
	N    int

	lease *bufpool.Lease
}

// Bytes wraps a real byte slice.
func Bytes(b []byte) Buffer { return Buffer{Data: b, N: len(b)} }

// Synthetic creates a length-only buffer for simulation workloads.
func Synthetic(n int) Buffer { return Buffer{N: n} }

// PooledBytes wraps the first n bytes of a leased buffer. The caller's
// reference on the lease travels with the returned Buffer.
func PooledBytes(l *bufpool.Lease, n int) Buffer {
	if l == nil {
		return Synthetic(n)
	}
	return Buffer{Data: l.Bytes()[:n], N: n, lease: l}
}

// BytesWithLease wraps a real byte slice that was (normally) written into
// leased storage, carrying the caller's lease reference with it. data is not
// required to alias the lease: a producer that outgrew the leased storage and
// reallocated may still hand the lease over, and releasing the returned
// buffer then merely recycles the unused lease — never the live data.
func BytesWithLease(data []byte, l *bufpool.Lease) Buffer {
	return Buffer{Data: data, N: len(data), lease: l}
}

// Len returns the payload length in bytes.
func (b Buffer) Len() int { return b.N }

// IsSynthetic reports whether the buffer carries no real bytes.
func (b Buffer) IsSynthetic() bool { return b.Data == nil }

// Retain adds a reference to the buffer's pool lease, if it has one. Callers
// that store a buffer beyond the call that handed it to them must retain it.
func (b Buffer) Retain() { b.lease.Retain() }

// Release drops one reference on the buffer's pool lease, if it has one; at
// zero references the storage returns to the pool. Only release a reference
// you own (from PooledBytes, Clone of a real buffer, or your own Retain) —
// and never touch Data, or any Slice of it, after your last reference is
// gone. A buffer that is never released simply falls to the garbage
// collector.
func (b Buffer) Release() { b.lease.Release() }

// TransportOwned reports whether the buffer's storage is a transport slab
// slot (an shm ring) rather than pooled or GC'd memory — i.e. the receive
// path handed over the sender's bytes in place, with zero intermediate
// copies. The encrypted layer uses it to count in-place opens.
func (b Buffer) TransportOwned() bool { return b.lease.RingBacked() }

// SharesStorage reports whether two buffers are backed by the same pool
// lease (both having no lease also counts as sharing: releasing either is a
// no-op). The encrypted layer uses it to avoid recycling a wire buffer whose
// storage an engine's Open returned as the plaintext.
func (b Buffer) SharesStorage(o Buffer) bool { return b.lease == o.lease }

// Clone copies the buffer so the sender may reuse its storage (eager-send
// semantics). Real-byte clones draw their storage from the buffer pool; the
// returned buffer carries one lease reference owned by the caller.
// Synthetic buffers are value types already.
func (b Buffer) Clone() Buffer {
	if b.Data == nil {
		return b
	}
	if b.N == 0 {
		return Buffer{}
	}
	l := bufpool.Get(b.N)
	copy(l.Bytes()[:b.N], b.Data)
	return PooledBytes(l, b.N)
}

// Prefix returns the sub-buffer [0, n) sharing both the parent's storage and
// its lease identity, so SharesStorage(parent) stays true. The returned
// buffer carries no reference of its own — the parent's reference covers it.
// Engines whose Open returns a prefix of the wire buffer use this so the
// caller does not recycle the wire out from under the plaintext.
func (b Buffer) Prefix(n int) Buffer {
	if n < 0 || n > b.N {
		panic(fmt.Sprintf("mpi: bad buffer prefix %d of %d", n, b.N))
	}
	if b.Data == nil {
		return Synthetic(n)
	}
	return Buffer{Data: b.Data[:n], N: n, lease: b.lease}
}

// Slice returns the sub-buffer [lo, hi). The slice borrows the parent's
// storage but carries no lease: it must not outlive the parent's last
// reference.
func (b Buffer) Slice(lo, hi int) Buffer {
	if lo < 0 || hi > b.N || lo > hi {
		panic(fmt.Sprintf("mpi: bad buffer slice [%d:%d) of %d", lo, hi, b.N))
	}
	if b.Data == nil {
		return Synthetic(hi - lo)
	}
	return Bytes(b.Data[lo:hi])
}

// Msg is a wire message.
type Msg struct {
	Src, Dst int
	Tag      int
	Ctx      int
	Kind     Kind
	// Seq identifies a rendezvous exchange (world-unique).
	Seq uint64
	// DataLen is the payload size announced by an RTS; for a KindDataSeg
	// frame it carries the chunk index instead (the frames of one exchange
	// are self-describing, so a receiver can detect reordering).
	DataLen int
	// Chunks, when non-zero on an RTS or DataSeg, is the chunk count of a
	// chunked rendezvous exchange (DESIGN.md §12). Zero means the classic
	// single-DATA protocol.
	Chunks int
	// Lane isolates independent traffic streams multiplexed over one
	// transport: messages only match receives posted on the same lane, and
	// the TCP wire engine interleaves its send batches across lanes so no
	// lane monopolizes a shared connection. Lane 0 is the default
	// (pre-session) stream; each encrypted session claims its own lane.
	Lane uint16
	Buf  Buffer

	// Done, when set, receives the message's local-completion signal from
	// the transport (see Completion). It is an interface rather than a pair
	// of func fields so the protocol can hand the transport a pointer it
	// already holds — converting *Request to a completion view allocates
	// nothing, where a closure per message would.
	Done Completion
}

// Completion is a message's local-completion listener. The transport invokes
// Injected once the message has locally completed on the sender side —
// synchronously for the in-process transport, after the wire engine flushed
// the frame for the socket transport, and at the NIC drain time in the
// simulator. The point-to-point protocol uses it for MPI's send-completion
// semantics: a blocking send returns when the data has actually left through
// the adapter, not when it was queued.
//
// Failed is the failure counterpart: a transport that accepted the message
// (Send returned nil) but later failed to put it on the wire — an
// asynchronous wire engine whose flush errored, a connection that died with
// the frame still queued — reports the failure here instead of silently
// dropping the frame. When Send returns nil, exactly one of Injected and
// Failed fires (for messages that set Done); when Send returns an error,
// neither does — the caller already has the failure in hand.
type Completion interface {
	Injected()
	Failed(error)
}

// ErrTransport is the root of the transport-failure error family: any error
// a Transport's Send returns is wrapped in it by the MPI core, completes the
// affected request with the wrapped error, and surfaces through
// Request.Err/Waitall — a dead connection fails the operation, never the
// rank. Match with errors.Is(err, ErrTransport).
var ErrTransport = errors.New("mpi: transport failure")

// Transport moves messages between ranks. Send must not block on the
// receiver; from may be nil when sending from a non-process context (e.g. a
// protocol follow-up issued during delivery). Implementations must preserve
// per-(src,dst) ordering and invoke the World's Deliver exactly once per
// message delivered.
//
// Send returns a non-nil error when the message could not be injected (a
// missing or failed connection); it must never panic on wire failure. A
// transport that queues m.Buf beyond the Send call (asynchronous delivery)
// must Retain the buffer for the queue duration and Release it after
// delivery, because the sender is free to release its own reference as soon
// as Send returns. A transport that accepts a message (returns nil) and
// later discovers it cannot reach the wire must invoke m.Done.Failed exactly
// once with the failure, so the error lands on the request that sent it.
//
// The *Msg itself is owned by the caller for the duration of the call only:
// neither Send nor the Deliver it triggers may keep the pointer after
// returning (Deliver queues private copies; an asynchronous transport copies
// the fields it needs into its own frames). This is what lets the protocol
// recycle Msg structs through a pool on the hot path.
type Transport interface {
	Send(from sched.Proc, m *Msg) error
}

// InlineDelivery is implemented by transports whose Send hands Deliver the
// caller's own Buffer — in-process delivery with no serialization step. For
// such transports the protocol must clone a borrowed rendezvous payload
// before injecting the DATA frame: MPI semantics let the sender reuse its
// buffer the moment the send completes, and with inline delivery the
// receiver would otherwise be reading storage the sender is already
// overwriting. A wire transport that serializes the payload (TCP) omits the
// interface — the serialization is the copy.
type InlineDelivery interface {
	// DeliversInline reports whether delivered messages alias the sender's
	// payload storage.
	DeliversInline() bool
}

// SlotWriter is implemented by transports that own eager payload storage — an
// shm slab ring — and can lease a slot for the sender to write (or seal) the
// payload directly into, eliminating the intermediate eager clone.
type SlotWriter interface {
	// AcquireSlot leases transport-owned storage for an n-byte payload from
	// world rank src to dst. The returned buffer carries one lease reference
	// owned by the caller, exactly like Buffer.Clone: the caller fills it,
	// sends it with eager-injected semantics, and releases its reference; the
	// matcher's retain/release discipline recycles the slot. ok is false when
	// the transport has nothing to offer for this pair or size (no ring,
	// oversize payload, ring full) and the caller must fall back to pooled
	// storage — AcquireSlot never blocks.
	AcquireSlot(src, dst, n int) (Buffer, bool)
}

// transportErr wraps a transport Send failure into the ErrTransport family.
func transportErr(err error) error {
	return fmt.Errorf("%w: %v", ErrTransport, err)
}

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Len    int
}

// World holds the shared state of one MPI job.
type World struct {
	size  int
	eager int
	tr    Transport
	// slot is the transport's slot-leasing face, when it has one (discovered
	// once at construction; a fault-injecting wrapper forwards it).
	slot SlotWriter
	// inline records whether tr delivers messages aliasing the sender's
	// storage (see InlineDelivery); discovered once at construction.
	inline bool

	states []*rankState

	seqMu sync.Mutex
	seq   uint64

	// stray counts wire messages Deliver discarded because they fit no
	// protocol state (duplicated, replayed, or forged traffic). See Deliver.
	stray atomic.Uint64

	// metrics, when set, receives per-rank op/wait/stray accounting. It is
	// installed once before ranks attach and read-only afterwards.
	metrics *obs.Registry

	// nodeOf maps a world rank to its node id, when the launcher knows the
	// placement (WithTopology, or the simulator's cluster spec). nil means
	// the topology is unknown and hierarchical collectives fall back to
	// their flat algorithms. Installed once before ranks attach and
	// read-only afterwards.
	nodeOf func(rank int) int
}

// SetTopology installs the rank→node map. Call it before AttachRank, like
// SetMetrics; a nil map leaves the topology unknown.
func (w *World) SetTopology(nodeOf func(rank int) int) { w.nodeOf = nodeOf }

// Topology returns the installed rank→node map (nil when unknown).
func (w *World) Topology() func(rank int) int { return w.nodeOf }

// SetMetrics installs a metrics registry. Call it before AttachRank so every
// communicator picks up its rank scope; a nil registry leaves the world
// unobserved (the zero-cost default).
func (w *World) SetMetrics(g *obs.Registry) { w.metrics = g }

// Metrics returns the installed registry (nil when unobserved).
func (w *World) Metrics() *obs.Registry { return w.metrics }

// StrayMessages reports how many delivered messages were discarded as
// protocol strays. Fault-injection tests use it to confirm that hostile
// duplicates were dropped rather than crashing the matching engine.
func (w *World) StrayMessages() uint64 { return w.stray.Load() }

// NewWorld creates a world of the given size over a transport. eagerThreshold
// is the protocol switch point in bytes: payloads strictly smaller go eager.
func NewWorld(size int, tr Transport, eagerThreshold int) *World {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	w := &World{size: size, eager: eagerThreshold, tr: tr}
	if sw, ok := tr.(SlotWriter); ok {
		w.slot = sw
	}
	if id, ok := tr.(InlineDelivery); ok {
		w.inline = id.DeliversInline()
	}
	w.states = make([]*rankState, size)
	for i := range w.states {
		w.states[i] = newRankState(i)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// EagerThreshold returns the protocol switch point.
func (w *World) EagerThreshold() int { return w.eager }

// nextSeq issues a world-unique rendezvous sequence number.
func (w *World) nextSeq() uint64 {
	w.seqMu.Lock()
	defer w.seqMu.Unlock()
	w.seq++
	return w.seq
}

// AttachRank binds a process to a rank and returns its communicator handle.
// Every rank must be attached exactly once before communicating.
func (w *World) AttachRank(rank int, proc sched.Proc) *Comm {
	st := w.states[rank]
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.proc != nil {
		panic(fmt.Sprintf("mpi: rank %d attached twice", rank))
	}
	st.proc = proc
	return &Comm{
		w: w, rank: rank, proc: proc, st: st,
		ctxUser: CtxUser, ctxColl: CtxColl,
		metrics: w.metrics.Rank(rank),
	}
}

// Comm is a per-rank communicator handle: the world communicator returned by
// AttachRank, or a subgroup created by Split. Ranks, sources, and statuses
// are always expressed in this communicator's own numbering.
type Comm struct {
	w    *World
	rank int // rank within this communicator
	proc sched.Proc
	st   *rankState // matching state of our world rank

	// collSeq numbers collective invocations; all ranks execute collectives
	// in the same order, so equal numbers align across ranks.
	collSeq int

	// group lists the world ranks of this communicator's members in comm
	// order; nil means the world communicator (identity mapping).
	group       []int
	worldToComm map[int]int

	// ctxUser and ctxColl isolate this communicator's traffic (the analogue
	// of MPI context ids). The world communicator uses CtxUser/CtxColl.
	ctxUser, ctxColl int

	// lane stamps every message this communicator sends and restricts its
	// matching to messages on the same lane (see Msg.Lane).
	lane uint16

	// metrics is this world rank's scope in the job registry; nil (inert)
	// when the world is unobserved. Sub-communicators from Split share it —
	// accounting is always per world rank.
	metrics *obs.Rank

	// hier caches this communicator's node/leader decomposition (hier.go).
	// Built collectively on first use; nil until then. Owned by this rank's
	// goroutine like the rest of the handle.
	hier *Hier
	// spansMemo caches SpansNodes (0 unknown, 1 single-node, 2 spanning) —
	// the encrypted layer asks per seal, and the scan is O(p).
	spansMemo int8
}

// HasTopology reports whether the launcher installed a rank→node map.
func (c *Comm) HasTopology() bool { return c.w.nodeOf != nil }

// NodeOf returns the node id of a rank in this communicator's numbering, or
// -1 when the topology is unknown.
func (c *Comm) NodeOf(r int) int {
	if c.w.nodeOf == nil {
		return -1
	}
	return c.w.nodeOf(c.worldOf(r))
}

// SpansNodes reports whether this communicator's members live on more than
// one node. An unknown topology counts as a single node (nothing provably
// crosses a NIC).
func (c *Comm) SpansNodes() bool {
	if c.w.nodeOf == nil {
		return false
	}
	if c.spansMemo == 0 {
		c.spansMemo = 1
		first := c.NodeOf(0)
		for r := 1; r < c.Size(); r++ {
			if c.NodeOf(r) != first {
				c.spansMemo = 2
				break
			}
		}
	}
	return c.spansMemo == 2
}

// Metrics returns this rank's metrics scope (nil when unobserved). The
// encrypted layer uses it to attribute crypto costs without extra plumbing.
func (c *Comm) Metrics() *obs.Rank { return c.metrics }

// Registry returns the world's metrics registry (nil when unobserved); the
// encrypted session layer uses it to open per-session counter scopes.
func (c *Comm) Registry() *obs.Registry { return c.w.metrics }

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int {
	if c.group != nil {
		return len(c.group)
	}
	return c.w.size
}

// Proc exposes the underlying process (clock and parking).
func (c *Comm) Proc() sched.Proc { return c.proc }

// worldOf translates a comm rank to a world rank.
func (c *Comm) worldOf(r int) int {
	if c.group == nil {
		return r
	}
	return c.group[r]
}

// commOf translates a world rank back to this communicator's numbering.
func (c *Comm) commOf(world int) int {
	if c.worldToComm == nil {
		return world
	}
	r, ok := c.worldToComm[world]
	if !ok {
		panic(fmt.Sprintf("mpi: world rank %d is not a member of this communicator", world))
	}
	return r
}

// CommRank translates a world rank into this communicator's numbering
// without panicking: ok is false when the world rank is not a member. The
// encrypted session layer uses it to derive the AAD source for a completed
// receive (whose Status carries world numbering at hook time).
func (c *Comm) CommRank(world int) (int, bool) {
	if c.worldToComm == nil {
		if world < 0 || world >= c.w.size {
			return -1, false
		}
		return world, true
	}
	r, ok := c.worldToComm[world]
	return r, ok
}

// Lane returns the lane this communicator's traffic travels on.
func (c *Comm) Lane() uint16 { return c.lane }

// AcquireSlot leases transport-owned eager storage for an n-byte payload to
// dst (comm numbering), when the transport offers slots and n is inside the
// eager protocol regime. The encrypted layer seals ciphertext directly into
// the slot and sends it owned (StartSend) — the zero-copy eager path. ok false
// means "use pooled storage"; it never blocks.
func (c *Comm) AcquireSlot(dst, n int) (Buffer, bool) {
	if c.w.slot == nil || n <= 0 || n >= c.w.eager {
		return Buffer{}, false
	}
	return c.w.slot.AcquireSlot(c.st.rank, c.worldOf(dst), n)
}

// WithLane returns a view of this communicator whose traffic is isolated on
// the given lane: its sends are stamped with the lane and its receives only
// match messages stamped the same. The view shares the underlying matching
// state and collective sequence space is per-view, so all members of a lane
// must use their lane views for all operations on that lane. Lane 0 is the
// default stream the plain communicator uses.
func (c *Comm) WithLane(lane uint16) *Comm {
	if lane == c.lane {
		return c
	}
	v := *c
	v.lane = lane
	v.collSeq = 0
	// The cached decomposition's sub-communicators ride the original lane;
	// the view must rebuild its own on first use.
	v.hier = nil
	return &v
}
