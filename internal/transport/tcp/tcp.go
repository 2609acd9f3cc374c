// Package tcp is a real-socket transport: every pair of ranks is connected
// by a loopback TCP connection carrying length-framed messages. It exists to
// demonstrate that the encrypted MPI layer runs over a genuine network stack
// (the paper's claim that encrypting at the MPI layer works on top of any
// underlying network) and to exercise real serialization, buffering, and
// ordering behaviour in integration tests.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"encmpi/internal/bufpool"
	"encmpi/internal/mpi"
	"encmpi/internal/obs"
	"encmpi/internal/sched"
)

// header layout (big endian):
//
//	src     int32
//	dst     int32
//	tag     int64
//	ctx     int64
//	seq     uint64
//	datalen int64
//	chunks  int64
//	buflen  int64
//	kind    uint8
//	lane    uint16
//	_pad    [1]byte
//
// ctx is a full 64-bit field: Split derives 63-bit context ids (FNV-based
// ctxHash), and truncating them to 32 bits both broke sub-communicator
// matching over TCP outright (the receiver compares the full-width id) and
// could alias two distinct sub-comms onto one wire context.
const headerLen = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 1 + 2 + 1

// maxFramePayload bounds the payload length a frame header may announce
// (1 GiB). A hostile or corrupted stream must not be able to drive a
// multi-exabyte allocation (and the panic that follows) with eight cheap
// header bytes; past this bound the connection is abandoned as poisoned.
const maxFramePayload = 1 << 30

// errMalformedFrame reports a frame header whose length fields no honest
// sender produces; the connection that carried it is abandoned as poisoned.
var errMalformedFrame = errors.New("tcp: malformed frame header")

// Transport is a full mesh of loopback connections among n in-process ranks.
type Transport struct {
	n       int
	w       *mpi.World
	metrics *obs.Registry

	// NoPool disables the frame/payload buffer pool, restoring the
	// allocate-per-message behaviour. It exists so the allocation benchmarks
	// can measure the pooled path against the historical baseline; leave it
	// false in production. Set it before Bind.
	NoPool bool

	// SyncWrites disables the asynchronous wire engine and restores the
	// historical write path: frame assembled in one buffer, written under a
	// per-connection mutex, completion fired before Send returns. It is the
	// A/B baseline the batching benchmarks compare against; leave it false
	// in production. Set it before Bind.
	SyncWrites bool

	// conns[i][j] is the connection rank i writes to reach rank j.
	conns [][]net.Conn
	// wmu[i][j] serializes writers on that connection (SyncWrites path).
	wmu [][]*sync.Mutex
	// queues[i][j] is the wire engine for that connection (batched path).
	queues [][]*wireQueue

	closed  chan struct{}
	readers sync.WaitGroup
	writers sync.WaitGroup
}

// setupConcurrency caps how many pair setups are in flight at once. Each
// in-flight pair holds a listener and two sockets, so an unbounded fan-out
// over a large mesh could exhaust the fd table; 128 keeps setup parallel
// without risking it.
const setupConcurrency = 128

// New builds the mesh for n ranks over 127.0.0.1. The n·(n−1)/2 pair setups
// are independent (each has its own ephemeral listener), so they run
// concurrently under a small semaphore instead of serially — mesh setup is
// O(n²) dials and was the dominant startup cost for larger worlds. Every
// conn gets TCP_NODELAY set explicitly: the transport does its own
// batching (the wire engine) and must not stack Nagle delays on top of it.
// Call Bind before communicating and Close when done.
func New(n int) (*Transport, error) {
	t := &Transport{n: n, closed: make(chan struct{})}
	t.conns = make([][]net.Conn, n)
	t.wmu = make([][]*sync.Mutex, n)
	for i := range t.conns {
		t.conns[i] = make([]net.Conn, n)
		t.wmu[i] = make([]*sync.Mutex, n)
		for j := range t.wmu[i] {
			t.wmu[i][j] = &sync.Mutex{}
		}
	}

	// One bidirectional connection per unordered pair {i, j}. Pairs write
	// disjoint cells of t.conns, so no lock is needed on the matrix itself.
	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, setupConcurrency)
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i, j int) {
				defer wg.Done()
				defer func() { <-sem }()
				dialed, accepted, err := dialPair()
				if err != nil {
					fail(err)
					return
				}
				t.conns[i][j] = dialed
				t.conns[j][i] = accepted
			}(i, j)
		}
	}
	wg.Wait()
	if firstErr != nil {
		t.Close()
		return nil, firstErr
	}
	return t, nil
}

// dialPair sets up one loopback connection: listen on an ephemeral port,
// dial it, accept, close the listener, set TCP_NODELAY on both ends.
func dialPair() (dialed, accepted net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("tcp: listen: %w", err)
	}
	type acceptResult struct {
		c   net.Conn
		err error
	}
	ch := make(chan acceptResult, 1)
	go func() {
		c, err := ln.Accept()
		ch <- acceptResult{c, err}
	}()
	dialed, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		if acc := <-ch; acc.c != nil {
			acc.c.Close()
		}
		return nil, nil, fmt.Errorf("tcp: dial: %w", err)
	}
	acc := <-ch
	ln.Close()
	if acc.err != nil {
		dialed.Close()
		return nil, nil, fmt.Errorf("tcp: accept: %w", acc.err)
	}
	setNoDelay(dialed)
	setNoDelay(acc.c)
	return dialed, acc.c, nil
}

// setNoDelay disables Nagle explicitly. Go's default is already no-delay,
// but the transport's latency contract (the wire engine batches; the kernel
// must not add its own delay on top) is too important to leave implicit.
func setNoDelay(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
}

// SetMetrics installs a metrics registry; nil disables accounting. Call it
// before Bind so the readers never race the installation.
func (t *Transport) SetMetrics(g *obs.Registry) { t.metrics = g }

// Bind attaches the world, starts one reader per connection end, and —
// unless SyncWrites — one wire-engine writer per connection.
func (t *Transport) Bind(w *mpi.World) {
	t.w = w
	if !t.SyncWrites {
		t.queues = make([][]*wireQueue, t.n)
		for i := range t.queues {
			t.queues[i] = make([]*wireQueue, t.n)
		}
	}
	for i := 0; i < t.n; i++ {
		for j := 0; j < t.n; j++ {
			if i == j || t.conns[i][j] == nil {
				continue
			}
			conn := t.conns[i][j]
			t.readers.Add(1)
			go t.readLoop(conn)
			if !t.SyncWrites {
				q := newWireQueue(t, conn, i, j)
				t.queues[i][j] = q
				t.writers.Add(1)
				go q.writerLoop()
			}
		}
	}
}

// decodeHeader parses a frame header into the caller's message struct
// (payload not yet read; Buf and Done are reset) and returns the announced
// payload length. Decoding into a caller-owned struct instead of allocating
// lets the read loop reuse one Msg for its whole connection lifetime — legal
// because Deliver never retains the pointer. It rejects length fields no
// honest sender produces — a negative or oversized buflen (the allocation
// bound) and a negative or oversized DataLen (the synthetic-length field a
// hostile peer could otherwise drive through the matching engine unchecked).
func decodeHeader(hdr *[headerLen]byte, m *mpi.Msg) (buflen int, err error) {
	*m = mpi.Msg{
		Src:     int(int32(binary.BigEndian.Uint32(hdr[0:]))),
		Dst:     int(int32(binary.BigEndian.Uint32(hdr[4:]))),
		Tag:     int(int64(binary.BigEndian.Uint64(hdr[8:]))),
		Ctx:     int(int64(binary.BigEndian.Uint64(hdr[16:]))),
		Seq:     binary.BigEndian.Uint64(hdr[24:]),
		DataLen: int(int64(binary.BigEndian.Uint64(hdr[32:]))),
		Chunks:  int(int64(binary.BigEndian.Uint64(hdr[40:]))),
		Kind:    mpi.Kind(hdr[56]),
		Lane:    binary.BigEndian.Uint16(hdr[57:]),
	}
	buflen = int(int64(binary.BigEndian.Uint64(hdr[48:])))
	if buflen < 0 || buflen > maxFramePayload {
		return 0, fmt.Errorf("%w: buflen %d", errMalformedFrame, buflen)
	}
	if m.DataLen < 0 || m.DataLen > maxFramePayload {
		return 0, fmt.Errorf("%w: datalen %d", errMalformedFrame, m.DataLen)
	}
	if m.Chunks < 0 || m.Chunks > maxFramePayload {
		return 0, fmt.Errorf("%w: chunks %d", errMalformedFrame, m.Chunks)
	}
	return buflen, nil
}

// readBufBytes sizes the per-connection read buffer. The async wire engine
// delivers wireSegmentBytes-sized bursts; a read buffer of the same scale
// drains a whole burst from the socket in one syscall instead of a
// header-payload nibble per message, which both cuts receive-side syscalls
// and frees the sender's TCP window fast enough that its vectored writes keep
// streaming. bufio reads larger than the buffer bypass it entirely, so big
// payloads still land directly in their pooled lease with no extra copy.
const readBufBytes = 64 << 10

// readLoop parses frames and hands them to the matching engine.
func (t *Transport) readLoop(conn net.Conn) {
	defer t.readers.Done()
	r := bufio.NewReaderSize(conn, readBufBytes)
	var hdr [headerLen]byte
	// One Msg serves every frame on this connection: decodeHeader overwrites
	// the whole struct, and Deliver's contract forbids retaining the pointer
	// (the unexpected queue takes copies), so reuse is safe — and removes the
	// former per-frame Msg allocation on the receive path.
	m := new(mpi.Msg)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return // connection closed
		}
		buflen, err := decodeHeader(&hdr, m)
		if err != nil {
			// Poisoned stream: no sane frame can follow.
			t.metrics.FrameError()
			return
		}
		if buflen > 0 {
			if t.NoPool {
				m.Buf = mpi.Bytes(make([]byte, buflen))
			} else {
				lease := bufpool.Get(buflen)
				m.Buf = mpi.PooledBytes(lease, buflen)
			}
			if _, err := io.ReadFull(r, m.Buf.Data); err != nil {
				m.Buf.Release()
				return
			}
		}
		if t.metrics != nil && m.Dst >= 0 && m.Dst < t.n {
			// Receive accounting happens only for in-range destinations; a
			// hostile Dst must not grow the registry (Deliver will count the
			// message as an unattributed stray).
			// Unlike shm (which charges only matcher-accepted messages), the
			// bytes genuinely crossed the wire here, so they count regardless
			// of how Deliver classifies the frame.
			t.metrics.Rank(m.Dst).MsgRecv(buflen)
		}
		t.w.Deliver(m)
		// Drop the reader's reference; if the matching engine kept the
		// payload (unexpected queue, completed receive) it retained its own.
		m.Buf.Release()
	}
}

// materialize returns a buffer carrying real bytes with the same contents a
// peer would observe on the wire: synthetic payloads become zeros (a real
// network cannot ship a length without bytes), real payloads are copied into
// pooled storage so the result is decoupled from the sender's buffer exactly
// as a socket round-trip would decouple it. The caller owns the returned
// buffer's reference.
func (t *Transport) materialize(buf mpi.Buffer) mpi.Buffer {
	n := buf.Len()
	if n == 0 {
		return mpi.Buffer{}
	}
	if t.NoPool {
		out := make([]byte, n)
		copy(out, buf.Data) // no-op for synthetic: stays zeroed
		return mpi.Bytes(out)
	}
	lease := bufpool.Get(n)
	out := mpi.PooledBytes(lease, n)
	if buf.IsSynthetic() {
		clear(out.Data) // pooled storage is dirty; the wire would carry zeros
	} else {
		copy(out.Data, buf.Data)
	}
	return out
}

// Send implements mpi.Transport. Synthetic buffers travel as zeros: a real
// network cannot ship a length without bytes. Wire failures — a missing
// connection, a broken or closed queue, a write error on a live transport —
// are returned or routed through m.Done.Failed, never panicked on; the mpi
// core surfaces them as ErrTransport.
//
// On the default (batched) path, a nil return means the wire engine accepted
// the message, not that it reached the kernel: the frame header is encoded
// into the pooled frame, the payload is retained without copying, and the
// message is queued for the connection's writer. Exactly one of Done.Injected
// and Done.Failed fires when the flush that carries it resolves.
func (t *Transport) Send(_ sched.Proc, m *mpi.Msg) error {
	if m.Src == m.Dst {
		// Self-sends short-circuit; the TCP mesh has no loopback-to-self
		// conn. The payload still goes through materialize so self-delivery
		// has the same buffer semantics as a socket round-trip: the receiver
		// gets real, decoupled bytes, never an alias of the sender's buffer
		// and never a synthetic length.
		n := m.Buf.Len()
		dm := *m
		dm.Buf = t.materialize(m.Buf)
		dm.Done = nil
		if t.metrics != nil {
			t.metrics.Rank(m.Src).MsgSent(n)
			t.metrics.Rank(m.Dst).MsgRecv(n)
		}
		if m.Done != nil {
			m.Done.Injected()
		}
		t.w.Deliver(&dm)
		dm.Buf.Release()
		return nil
	}
	conn := t.conns[m.Src][m.Dst]
	if conn == nil {
		return fmt.Errorf("tcp: no connection %d→%d", m.Src, m.Dst)
	}
	if !t.SyncWrites {
		if t.queues == nil || t.queues[m.Src][m.Dst] == nil {
			return fmt.Errorf("tcp: send %d→%d before Bind", m.Src, m.Dst)
		}
		return t.queues[m.Src][m.Dst].enqueue(m)
	}

	n := m.Buf.Len()
	var lease *bufpool.Lease
	var frame []byte
	if t.NoPool {
		frame = make([]byte, headerLen+n)
	} else {
		lease = bufpool.Get(headerLen + n)
		frame = lease.Bytes()[:headerLen+n]
	}
	binary.BigEndian.PutUint32(frame[0:], uint32(int32(m.Src)))
	binary.BigEndian.PutUint32(frame[4:], uint32(int32(m.Dst)))
	binary.BigEndian.PutUint64(frame[8:], uint64(int64(m.Tag)))
	binary.BigEndian.PutUint64(frame[16:], uint64(int64(m.Ctx)))
	binary.BigEndian.PutUint64(frame[24:], m.Seq)
	binary.BigEndian.PutUint64(frame[32:], uint64(int64(m.DataLen)))
	binary.BigEndian.PutUint64(frame[40:], uint64(int64(m.Chunks)))
	binary.BigEndian.PutUint64(frame[48:], uint64(int64(n)))
	frame[56] = byte(m.Kind)
	binary.BigEndian.PutUint16(frame[57:], m.Lane)
	frame[59] = 0 // pooled storage is dirty; the reserved byte must not leak it
	if n > 0 {
		if m.Buf.IsSynthetic() {
			clear(frame[headerLen:]) // zeros on the wire, not pool garbage
		} else {
			copy(frame[headerLen:], m.Buf.Data)
		}
	}

	mu := t.wmu[m.Src][m.Dst]
	mu.Lock()
	_, err := conn.Write(frame)
	mu.Unlock()
	lease.Release()
	if err != nil {
		select {
		case <-t.closed:
			return nil // shutting down; drops are expected
		default:
			return fmt.Errorf("tcp: write %d→%d: %w", m.Src, m.Dst, err)
		}
	}
	if t.metrics != nil {
		t.metrics.Rank(m.Src).MsgSent(n)
	}
	if m.Done != nil {
		// The kernel accepted the whole frame: local completion.
		m.Done.Injected()
	}
	return nil
}

// Close flushes and tears down the transport. Order matters: first every
// wire queue is closed (new sends fail synchronously) and its writer drains
// whatever is pending — so a message the engine accepted is either written
// or failed through Done.Failed, never silently dropped — and only then are the
// sockets closed and the readers reaped.
func (t *Transport) Close() {
	select {
	case <-t.closed:
		return
	default:
		close(t.closed)
	}
	for i := range t.queues {
		for _, q := range t.queues[i] {
			if q != nil {
				q.shutdown()
			}
		}
	}
	t.writers.Wait()
	for i := range t.conns {
		for j := range t.conns[i] {
			if t.conns[i][j] != nil {
				t.conns[i][j].Close()
			}
		}
	}
	t.readers.Wait()
}

var _ mpi.Transport = (*Transport)(nil)
