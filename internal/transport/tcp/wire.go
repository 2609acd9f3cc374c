package tcp

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"encmpi/internal/mpi"
	"encmpi/internal/sched"
)

// wireWatermark is the per-connection queued-byte threshold past which the
// enqueuing sender flushes the queue itself instead of waking the writer
// goroutine — the caller-helps backpressure discipline (the same shape as
// internal/cryptopool): a fast producer cannot grow the queue without bound,
// because past the watermark every producer pays for the drain it causes.
const wireWatermark = 256 << 10

// zeroSlabLen is the chunk size synthetic payloads are vectored from. A
// synthetic buffer is a length without bytes; the wire must carry real zeros,
// so flushes slice them from one shared read-only slab instead of allocating.
const zeroSlabLen = 64 << 10

// zeroSlab is the shared all-zeros backing for synthetic payloads. It is
// written by no one; every flush may slice it concurrently.
var zeroSlab [zeroSlabLen]byte

// framePool recycles the per-message queue nodes — header slab included — so
// a steady-state send loop allocates nothing on the enqueue path and a queued
// frame costs one pool round trip.
var framePool = sync.Pool{New: func() any { return new(wireFrame) }}

// wireFrame is one queued message: its encoded header, a reference to the
// payload (retained until the flush that writes it), and the completion
// callbacks the flush must fire. size is the full on-wire footprint
// (header + payload), payloadLen the payload alone (what MsgSent records).
type wireFrame struct {
	hdr        [headerLen]byte
	buf        mpi.Buffer // retained payload; zero value for synthetic/empty
	synthetic  bool       // payload is zeros vectored from zeroSlab
	src, dst   int
	lane       uint16 // traffic stream (session), for flush-time fairness
	size       int
	payloadLen int
	done       mpi.Completion
}

// release returns the frame's pooled pieces. The completion must already
// have fired (or been deliberately dropped at Close).
func (f *wireFrame) release() {
	f.buf.Release()
	*f = wireFrame{}
	framePool.Put(f)
}

// wireQueue is one directed connection's send engine: a bounded-by-watermark
// pending list, a long-lived writer goroutine, and a flush path that drains
// every pending frame as a single vectored write.
//
// Locking: mu guards the queue state (pending, queuedBytes, closed, broken)
// and is never held across I/O. flushMu serializes batch extraction with the
// write of that batch, so batches hit the socket in extraction order and
// per-pair FIFO is preserved by construction no matter who flushes — the
// writer goroutine or a backpressured sender helping inline.
type wireQueue struct {
	t    *Transport
	conn net.Conn
	src  int
	dst  int

	mu          sync.Mutex
	pending     []*wireFrame
	queuedBytes int
	closed      bool  // no further enqueues; writer exits once drained
	broken      error // first write error; queue fails fast from then on
	// flushing marks a drain in progress (writer or inline helper, between
	// its first extraction and the moment it observes the queue empty or
	// hands off). While it is set, enqueues never wake the writer: the active
	// flusher is responsible for the frames accumulating behind its write —
	// an in-flight writev is the natural batching window, and waking the
	// writer per append during it only schedules goroutines to find work
	// someone else already owns.
	flushing bool
	// spare is the recycled backing of the last extracted batch: flush swaps
	// it in as the new pending storage, so a steady-state enqueue/flush cycle
	// ping-pongs between two arrays instead of growing a fresh one per batch.
	spare []*wireFrame

	flushMu sync.Mutex
	// Scratch storage reused across flushes (guarded by flushMu): the
	// vectored-write entry list and the per-frame cumulative sizes the
	// error-attribution walk needs. wbufs is the net.Buffers view WriteTo
	// consumes — a struct field rather than a local so taking its address for
	// the call does not force a heap allocation per flush.
	vecStorage  [][]byte
	sizeStorage []int64
	wbufs       net.Buffers

	notify *sched.Notify
}

func newWireQueue(t *Transport, conn net.Conn, src, dst int) *wireQueue {
	return &wireQueue{t: t, conn: conn, src: src, dst: dst, notify: sched.NewNotify()}
}

// encodeHeader writes m's frame header. buflen is the announced payload
// length (m.Buf.Len(); synthetic payloads announce their length and ship
// zeros).
func encodeHeader(hdr *[headerLen]byte, m *mpi.Msg, buflen int) {
	binary.BigEndian.PutUint32(hdr[0:], uint32(int32(m.Src)))
	binary.BigEndian.PutUint32(hdr[4:], uint32(int32(m.Dst)))
	binary.BigEndian.PutUint64(hdr[8:], uint64(int64(m.Tag)))
	binary.BigEndian.PutUint64(hdr[16:], uint64(int64(m.Ctx)))
	binary.BigEndian.PutUint64(hdr[24:], m.Seq)
	binary.BigEndian.PutUint64(hdr[32:], uint64(int64(m.DataLen)))
	binary.BigEndian.PutUint64(hdr[40:], uint64(int64(m.Chunks)))
	binary.BigEndian.PutUint64(hdr[48:], uint64(int64(buflen)))
	hdr[56] = byte(m.Kind)
	binary.BigEndian.PutUint16(hdr[57:], m.Lane)
	hdr[59] = 0
}

// enqueue appends m to the send queue and returns. The payload is not
// copied: real payloads are retained (released by the flush that writes
// them), synthetic payloads are noted and vectored from the zero slab at
// flush time. Past the watermark the caller drains the queue itself;
// otherwise the writer goroutine is woken.
//
// A nil return means the wire engine accepted the message: exactly one of
// m.Done.Injected and m.Done.Failed will fire later. A non-nil return (queue
// broken or transport closed) means neither will.
func (q *wireQueue) enqueue(m *mpi.Msg) error {
	n := m.Buf.Len()
	size := headerLen + n
	f := framePool.Get().(*wireFrame)
	encodeHeader(&f.hdr, m, n)
	f.src, f.dst = m.Src, m.Dst
	f.lane = m.Lane
	f.size = size
	f.payloadLen = n
	f.done = m.Done
	if n > 0 {
		if m.Buf.IsSynthetic() {
			f.synthetic = true
		} else {
			m.Buf.Retain()
			f.buf = m.Buf
		}
	}

	q.mu.Lock()
	if q.broken != nil || q.closed {
		broken := q.broken
		q.mu.Unlock()
		f.done = nil
		f.release()
		if broken != nil {
			return fmt.Errorf("tcp: send %d→%d on broken connection: %w", m.Src, m.Dst, broken)
		}
		return fmt.Errorf("tcp: send %d→%d after Close", m.Src, m.Dst)
	}
	wasEmpty := len(q.pending) == 0
	flushing := q.flushing
	q.pending = append(q.pending, f)
	q.queuedBytes += size
	over := q.queuedBytes >= wireWatermark
	// Gauge while still holding mu: any flush that extracts this frame (and
	// decrements) must acquire mu after this, so the gauge never goes
	// transiently negative — and f must not be touched once published, since
	// a concurrent flush may complete and recycle it immediately.
	q.t.metrics.WireEnqueued(size)
	q.mu.Unlock()

	if over {
		// Caller-helps backpressure: past the watermark the producer drains
		// the queue itself. If a flush is already running this blocks on
		// flushMu behind it — which is the throttle: the producer advances at
		// the socket's pace, and the queue stays bounded near the watermark.
		q.flush(true)
	} else if wasEmpty && !flushing {
		// Wake the writer only when the queue goes empty→non-empty with no
		// drain in progress. Every other append is already owned: either the
		// active flusher's loop will re-extract it, or the transition's
		// permit is still deposited in notify. Waking per message would make
		// the writer runnable per message, and on a saturated box that
		// schedules one-frame batches — the syscall-per-message pattern the
		// queue exists to avoid.
		q.notify.Unpark()
	}
	return nil
}

// flush drains the queue: it repeatedly extracts everything pending and
// writes it as one vectored batch, until the queue is observed empty. inline
// marks a caller-helps flush (a backpressured sender), which drains what it
// saw and returns — the writer goroutine owns the long tail.
//
// flushMu is held across extraction + write, so concurrent flushers cannot
// interleave batches: whatever order batches are extracted in is the order
// they reach the socket, which is what preserves per-pair FIFO.
func (q *wireQueue) flush(inline bool) {
	q.flushMu.Lock()
	defer q.flushMu.Unlock()
	for {
		q.mu.Lock()
		batch := q.pending
		bytes := q.queuedBytes
		broken := q.broken
		q.pending = q.spare
		q.spare = nil
		q.queuedBytes = 0
		// flushing stays set for as long as this drain owns frames that
		// arrive behind its write; it clears — under the same mu hold that
		// proves the queue empty — only when there is nothing left to own.
		q.flushing = len(batch) > 0
		q.mu.Unlock()
		if len(batch) == 0 {
			q.recycle(batch)
			return
		}
		if broken != nil {
			// The connection already died: fail the whole batch without
			// touching the socket. The gauge still drops by what left the
			// queue.
			q.t.metrics.WireEnqueued(-bytes)
			for _, f := range batch {
				q.fail(f, broken)
			}
		} else {
			q.interleaveLanes(batch)
			q.writeBatch(batch, bytes, inline)
		}
		q.recycle(batch)
		if inline {
			// An inline helper drains what it extracted and leaves; frames
			// enqueued during its write were suppressed from waking the
			// writer (flushing was set), so the handoff must wake it now or a
			// below-watermark tail would strand in the queue forever.
			q.mu.Lock()
			q.flushing = false
			tail := len(q.pending) > 0
			q.mu.Unlock()
			if tail {
				q.notify.Unpark()
			}
			return
		}
	}
}

// interleaveLanes reorders an extracted batch round-robin across the traffic
// lanes present in it, so one session's bulk stream cannot monopolize a
// shared connection's writes while another session's frames age behind it.
// Frames of one lane keep their relative order — per-pair FIFO is a per-lane
// property (matching requires lane equality; different lanes never feed the
// same request), so reordering *across* lanes is invisible to the protocol.
// Called with flushMu held, before the batch is written.
func (q *wireQueue) interleaveLanes(batch []*wireFrame) {
	// Fast path: a single lane in the batch (the overwhelmingly common case,
	// and always true without multiplexed sessions) — one scan, no work.
	mixed := false
	for _, f := range batch[1:] {
		if f.lane != batch[0].lane {
			mixed = true
			break
		}
	}
	if !mixed {
		return
	}
	// Slow path: bucket per lane in first-seen order, then deal one frame
	// from each non-empty bucket in turn back into the batch slots.
	buckets := make(map[uint16][]*wireFrame)
	var order []uint16
	for _, f := range batch {
		if _, ok := buckets[f.lane]; !ok {
			order = append(order, f.lane)
		}
		buckets[f.lane] = append(buckets[f.lane], f)
	}
	i := 0
	for len(order) > 0 {
		live := order[:0]
		for _, lane := range order {
			b := buckets[lane]
			batch[i] = b[0]
			i++
			if len(b) > 1 {
				buckets[lane] = b[1:]
				live = append(live, lane)
			}
		}
		order = live
	}
	q.t.metrics.WireLaneInterleave()
}

// recycle hands a processed batch's backing array back to the queue as the
// next pending storage. The frame pointers are cleared first — the frames
// are already back in their pool and must not be resurrected through a stale
// slot. Called with flushMu held, so at most one batch is in flight and the
// two arrays simply ping-pong.
func (q *wireQueue) recycle(batch []*wireFrame) {
	clear(batch)
	q.mu.Lock()
	if q.spare == nil {
		q.spare = batch[:0]
	}
	q.mu.Unlock()
}

// wireSegmentBytes caps the span of one vectored write. Coalescing pays by
// collapsing syscalls, but a writev much larger than the socket's free send
// buffer parks the flusher in the netpoller mid-write and convoys the whole
// queue behind kernel wakeups; segments around the send-buffer scale keep
// the syscall win while the socket stays streaming. Segments of one batch
// are written in order under the same flushMu hold, so ordering is
// unaffected.
const wireSegmentBytes = 64 << 10

// writeBatch writes one extracted batch as a sequence of vectored writes
// (net.Buffers → writev), each spanning at most wireSegmentBytes (and always
// at least one frame), firing each frame's completion as its segment
// resolves. On a write error the queue is marked broken, the error is
// attributed precisely inside the failing segment (see writeSegment), and
// every frame behind it fails without touching the socket. Called with
// flushMu held.
func (q *wireQueue) writeBatch(batch []*wireFrame, bytes int, inline bool) {
	for start := 0; start < len(batch); {
		segBytes := 0
		end := start
		for end < len(batch) && (end == start || segBytes+batch[end].size <= wireSegmentBytes) {
			segBytes += batch[end].size
			end++
		}
		if err := q.writeSegment(batch[start:end], segBytes, inline); err != nil {
			rest := batch[end:]
			restBytes := 0
			for _, f := range rest {
				restBytes += f.size
			}
			// The unwritten tail leaves the queue without a flush record:
			// drop the gauge by hand and fail every frame.
			q.t.metrics.WireEnqueued(-restBytes)
			for _, f := range rest {
				q.fail(f, err)
			}
			return
		}
		start = end
	}
}

// writeSegment performs one vectored write and fires the segment's
// completions. On a short write it attributes the error precisely: frames
// the kernel fully accepted complete normally, the frame cut mid-flight and
// everything after it in the segment fail, and the queue is marked broken so
// later sends fail fast. Returns the write error. Called with flushMu held.
func (q *wireQueue) writeSegment(seg []*wireFrame, segBytes int, inline bool) error {
	vec := q.vecStorage[:0]
	sizes := q.sizeStorage[:0]
	for _, f := range seg {
		vec = append(vec, f.hdr[:])
		if f.payloadLen > 0 {
			if f.synthetic {
				for rem := f.payloadLen; rem > 0; rem -= zeroSlabLen {
					chunk := rem
					if chunk > zeroSlabLen {
						chunk = zeroSlabLen
					}
					vec = append(vec, zeroSlab[:chunk])
				}
			} else {
				vec = append(vec, f.buf.Data[:f.payloadLen])
			}
		}
		sizes = append(sizes, int64(f.size))
	}
	q.vecStorage, q.sizeStorage = vec, sizes

	q.wbufs = net.Buffers(vec)
	written, err := q.wbufs.WriteTo(q.conn)
	// Drop the payload references the scratch vector still holds: the frames
	// release their leases below, and a stale entry must not pin a recycled
	// buffer past this flush.
	clear(vec)
	q.wbufs = nil
	q.t.metrics.WireFlush(len(seg), segBytes, inline)

	if err == nil {
		for _, f := range seg {
			q.complete(f)
		}
		return nil
	}

	q.t.metrics.WireWriteError()
	werr := fmt.Errorf("tcp: write %d→%d: %w", q.src, q.dst, err)
	q.mu.Lock()
	if q.broken == nil {
		q.broken = werr
	}
	q.mu.Unlock()
	// Walk the segment against the byte count the kernel accepted: a frame
	// whose last byte made it out completed from the sender's point of view;
	// the one cut mid-frame (and everything queued behind it) did not.
	var cum int64
	for i, f := range seg {
		cum += sizes[i]
		if cum <= written {
			q.complete(f)
		} else {
			q.fail(f, werr)
		}
	}
	return werr
}

// complete accounts and signals one frame that fully reached the kernel.
func (q *wireQueue) complete(f *wireFrame) {
	if q.t.metrics != nil {
		q.t.metrics.Rank(f.src).MsgSent(f.payloadLen)
	}
	done := f.done
	f.release()
	if done != nil {
		done.Injected()
	}
}

// fail signals one frame that did not reach the wire.
func (q *wireQueue) fail(f *wireFrame, err error) {
	done := f.done
	f.release()
	if done != nil {
		done.Failed(err)
	}
}

// writerLoop is the connection's long-lived writer: it drains the queue,
// parks when empty, and exits once the queue is closed and drained. The
// re-check after Park handles the coalesced-permit race (an Unpark between
// the emptiness check and the Park is never lost, merely coalesced).
func (q *wireQueue) writerLoop() {
	defer q.t.writers.Done()
	for {
		q.flush(false)
		q.mu.Lock()
		empty := len(q.pending) == 0
		closed := q.closed
		q.mu.Unlock()
		if empty {
			if closed {
				return
			}
			q.notify.Park()
		}
	}
}

// shutdown marks the queue closed (enqueues fail from now on) and wakes the
// writer so it drains what is pending and exits. Close waits on the writers'
// WaitGroup for the drain to finish before tearing down the sockets, which
// is what makes Close flush-and-drain rather than drop.
func (q *wireQueue) shutdown() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notify.Unpark()
}
