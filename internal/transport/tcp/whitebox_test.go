package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"encmpi/internal/mpi"
	"encmpi/internal/obs"
	"encmpi/internal/sched"
)

// newWorld wires a transport of size n to a fresh world and attaches every
// rank on a wall-clock proc.
func newWorld(t testing.TB, n int) (*Transport, []*mpi.Comm) {
	t.Helper()
	tr, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	w := mpi.NewWorld(n, tr, 64<<10)
	tr.Bind(w)
	var g sched.Group
	comms := make([]*mpi.Comm, n)
	for i := range comms {
		comms[i] = w.AttachRank(i, g.Proc())
	}
	return tr, comms
}

// TestSendErrorsAfterConnKilled kills the 0→1 connection mid-run and checks
// that both eager and rendezvous sends surface ErrTransport through Waitall —
// no panic, and Close still returns (all reader goroutines exit).
func TestSendErrorsAfterConnKilled(t *testing.T) {
	tr, comms := newWorld(t, 2)
	c0 := comms[0]

	tr.conns[0][1].Close()

	reqs := []*mpi.Request{
		c0.Isend(1, 1, mpi.Bytes([]byte("eager after kill"))),
		c0.Isend(1, 2, mpi.Bytes(make([]byte, 128<<10))), // rendezvous: RTS fails
	}
	err := c0.Waitall(reqs)
	if !errors.Is(err, mpi.ErrTransport) {
		t.Fatalf("Waitall = %v, want ErrTransport", err)
	}
	for i, r := range reqs {
		if !errors.Is(r.Err(), mpi.ErrTransport) {
			t.Errorf("request %d: Err() = %v, want ErrTransport", i, r.Err())
		}
	}
	// A hang here (leaked reader goroutine) fails the test by timeout.
	tr.Close()
}

// TestSendToMissingConn covers the no-connection error path without a live
// wire at all.
func TestSendToMissingConn(t *testing.T) {
	tr, comms := newWorld(t, 2)
	tr.conns[0][1].Close()
	tr.conns[0][1] = nil

	if err := comms[0].Send(1, 0, mpi.Bytes([]byte("nowhere"))); !errors.Is(err, mpi.ErrTransport) {
		t.Fatalf("Send = %v, want ErrTransport", err)
	}
}

// TestSelfSendMatchesWireSemantics: a self-send must look exactly like a
// socket round-trip — synthetic lengths become real zero bytes, and the
// delivered payload is decoupled from the sender's storage.
func TestSelfSendMatchesWireSemantics(t *testing.T) {
	_, comms := newWorld(t, 1)
	c := comms[0]

	// Synthetic self-sends arrive as real zeros, like cross-rank sends.
	if err := c.Send(0, 1, mpi.Synthetic(100)); err != nil {
		t.Fatal(err)
	}
	buf, _ := c.Recv(0, 1)
	if buf.IsSynthetic() || buf.Len() != 100 {
		t.Fatalf("synthetic self-send: len=%d synthetic=%v", buf.Len(), buf.IsSynthetic())
	}
	for _, bb := range buf.Data {
		if bb != 0 {
			t.Fatal("synthetic self-send payload not zeroed")
		}
	}
	buf.Release()

	// A rendezvous self-send hands the transport the caller's own buffer
	// (no eager clone); once the send completes MPI says the buffer is
	// reusable, so mutating it must not reach the not-yet-waited receive.
	big := bytes.Repeat([]byte{0x42}, 128<<10)
	rreq := c.Irecv(0, 2)
	sreq := c.Isend(0, 2, mpi.Bytes(big))
	c.Wait(sreq)
	for i := range big {
		big[i] = 0x99
	}
	got, _ := c.Wait(rreq)
	if got.Len() != len(big) {
		t.Fatalf("self-send len = %d, want %d", got.Len(), len(big))
	}
	for i, bb := range got.Data {
		if bb != 0x42 {
			t.Fatalf("self-send aliased sender storage: byte %d = %#x", i, bb)
		}
	}
	got.Release()
}

// TestHostileDataLenCountsFrameError writes a raw frame announcing a negative
// DataLen straight into a connection: the reader must reject it as a frame
// error and abandon the stream without delivering a message.
func TestHostileDataLenCountsFrameError(t *testing.T) {
	tr, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := obs.NewRegistry(2)
	tr.SetMetrics(reg)
	w := mpi.NewWorld(2, tr, 64<<10)
	tr.Bind(w)
	var g sched.Group
	for i := 0; i < 2; i++ {
		w.AttachRank(i, g.Proc())
	}

	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[0:], 0)           // src
	binary.BigEndian.PutUint32(hdr[4:], 1)           // dst
	binary.BigEndian.PutUint64(hdr[24:], 7)          // seq
	binary.BigEndian.PutUint64(hdr[32:], ^uint64(0)) // datalen = -1
	binary.BigEndian.PutUint64(hdr[40:], 0)          // chunks
	binary.BigEndian.PutUint64(hdr[48:], 0)          // buflen
	if _, err := tr.conns[0][1].Write(hdr[:]); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().FrameErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hostile DataLen never counted as a frame error")
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzFrameHeader drives decodeHeader with arbitrary header bytes: it must
// never hand back out-of-bounds lengths, and every rejection must be the
// malformed-frame error.
func FuzzFrameHeader(f *testing.F) {
	mk := func(datalen, chunks, buflen int64) []byte {
		var h [headerLen]byte
		binary.BigEndian.PutUint32(h[0:], 0)
		binary.BigEndian.PutUint32(h[4:], 1)
		binary.BigEndian.PutUint64(h[32:], uint64(datalen))
		binary.BigEndian.PutUint64(h[40:], uint64(chunks))
		binary.BigEndian.PutUint64(h[48:], uint64(buflen))
		return h[:]
	}
	f.Add(mk(-1, 0, 16))    // negative DataLen (hostile RTS)
	f.Add(mk(1<<40, 0, 16)) // absurd DataLen
	f.Add(mk(16, 0, -1))    // negative buflen
	f.Add(mk(16, 0, 1<<40)) // absurd buflen
	f.Add(mk(16, -1, 16))   // negative chunk count
	f.Add(mk(16, 1<<40, 0)) // absurd chunk count
	f.Add(mk(64, 8, 64))    // honest chunked frame
	f.Fuzz(func(t *testing.T, raw []byte) {
		var hdr [headerLen]byte
		copy(hdr[:], raw)
		m := new(mpi.Msg)
		buflen, err := decodeHeader(&hdr, m)
		if err != nil {
			if !errors.Is(err, errMalformedFrame) {
				t.Fatalf("decodeHeader error %v is not errMalformedFrame", err)
			}
			return
		}
		if buflen < 0 || buflen > maxFramePayload {
			t.Fatalf("accepted buflen %d", buflen)
		}
		if m.DataLen < 0 || m.DataLen > maxFramePayload {
			t.Fatalf("accepted DataLen %d", m.DataLen)
		}
		if m.Chunks < 0 || m.Chunks > maxFramePayload {
			t.Fatalf("accepted Chunks %d", m.Chunks)
		}
	})
}

// benchRoundtrip ping-pongs a 256 KiB rendezvous payload between two ranks,
// with the receive side releasing its pooled buffers. Compare the Alloc pair
// to see the pool removing the per-message frame and payload allocations.
func benchRoundtrip(b *testing.B, noPool bool) {
	tr, err := New(2)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	tr.NoPool = noPool
	w := mpi.NewWorld(2, tr, 64<<10)
	tr.Bind(w)
	var g sched.Group
	c0 := w.AttachRank(0, g.Proc())
	c1 := w.AttachRank(1, g.Proc())

	payload := bytes.Repeat([]byte{0xAB}, 256<<10)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			buf, _ := c1.Recv(0, 1)
			buf.Release()
			if err := c1.Send(0, 2, mpi.Bytes(payload)); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.SetBytes(2 * 256 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c0.Send(1, 1, mpi.Bytes(payload)); err != nil {
			b.Fatal(err)
		}
		buf, _ := c0.Recv(1, 2)
		buf.Release()
	}
	b.StopTimer()
	<-done
}

func BenchmarkTCPRoundtripAlloc(b *testing.B)         { benchRoundtrip(b, false) }
func BenchmarkTCPRoundtripAllocUnpooled(b *testing.B) { benchRoundtrip(b, true) }

// TestRoundtripAllocRegression pins the sequential 256 KiB rendezvous round
// trip at zero steady-state allocations per operation: requests and protocol
// messages (RTS/CTS/DATA and their decoded forms) recycle through the mpi
// pools, payloads through bufpool, frame nodes (header included) through the
// frame pool, and the readLoop reuses
// one Msg per connection. The seed shipped at 16 allocs/op (4 requests + 6
// protocol Msgs + 6 decode Msgs); a small tolerance absorbs sporadic
// sync.Pool refills under GC pressure.
func TestRoundtripAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are meaningless")
	}
	tr, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	w := mpi.NewWorld(2, tr, 64<<10)
	tr.Bind(w)
	var g sched.Group
	c0 := w.AttachRank(0, g.Proc())
	c1 := w.AttachRank(1, g.Proc())

	payload := bytes.Repeat([]byte{0xAB}, 256<<10)
	const doneTag = 99
	echoDone := make(chan struct{})
	echoed := make(chan struct{}, 1)
	go func() {
		defer close(echoDone)
		for {
			buf, st := c1.Recv(0, mpi.AnyTag)
			buf.Release()
			if st.Tag == doneTag {
				return
			}
			if err := c1.Send(0, 2, mpi.Bytes(payload)); err != nil {
				t.Error(err)
				return
			}
			echoed <- struct{}{}
		}
	}()
	roundtrip := func() {
		if err := c0.Send(1, 1, mpi.Bytes(payload)); err != nil {
			t.Fatal(err)
		}
		buf, _ := c0.Recv(1, 2)
		buf.Release()
		<-echoed
	}
	for i := 0; i < 6; i++ {
		roundtrip() // warm every pool on both ranks
	}
	got := testing.AllocsPerRun(40, roundtrip)
	if err := c0.Send(1, doneTag, mpi.Bytes([]byte{0})); err != nil {
		t.Fatal(err)
	}
	<-echoDone
	if got >= 16 {
		t.Fatalf("256 KiB rendezvous round trip: %.1f allocs/op — the seed's 16 is back", got)
	}
	if got > 2 {
		t.Errorf("256 KiB rendezvous round trip: %.1f allocs/op, want ≤ 2 (steady state is 0)", got)
	}
}

// TestInterleaveLanes checks the flush-time fairness pass directly: a
// uniform batch is untouched (fast path), a mixed batch is dealt round-robin
// across lanes in first-seen order with per-lane FIFO preserved.
func TestInterleaveLanes(t *testing.T) {
	mk := func(lanes ...uint16) []*wireFrame {
		batch := make([]*wireFrame, len(lanes))
		for i, l := range lanes {
			batch[i] = &wireFrame{lane: l, size: i} // size doubles as identity
		}
		return batch
	}
	lanesOf := func(batch []*wireFrame) []uint16 {
		out := make([]uint16, len(batch))
		for i, f := range batch {
			out[i] = f.lane
		}
		return out
	}

	reg := obs.NewRegistry(1)
	q := &wireQueue{t: &Transport{metrics: reg}}

	uniform := mk(3, 3, 3, 3)
	orig := append([]*wireFrame(nil), uniform...)
	q.interleaveLanes(uniform)
	for i := range uniform {
		if uniform[i] != orig[i] {
			t.Fatalf("fast path reordered a single-lane batch at %d", i)
		}
	}
	if got := reg.Snapshot().Wire.LaneInterleave; got != 0 {
		t.Fatalf("fast path counted an interleave: %d", got)
	}

	mixed := mk(1, 1, 1, 2, 2, 7)
	q.interleaveLanes(mixed)
	want := []uint16{1, 2, 7, 1, 2, 1}
	got := lanesOf(mixed)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-robin order %v, want %v", got, want)
		}
	}
	// Per-lane FIFO: lane 1's frames keep their original relative order.
	var lane1 []int
	for _, f := range mixed {
		if f.lane == 1 {
			lane1 = append(lane1, f.size)
		}
	}
	if len(lane1) != 3 || lane1[0] > lane1[1] || lane1[1] > lane1[2] {
		t.Fatalf("lane 1 FIFO broken: %v", lane1)
	}
	if got := reg.Snapshot().Wire.LaneInterleave; got != 1 {
		t.Fatalf("interleave count %d, want 1", got)
	}
}

// TestLaneHeaderRoundtrip pins the header byte positions of the lane field
// on both write paths (batched encodeHeader and the synchronous fallback are
// covered by decodeHeader symmetry at the transport level elsewhere; this
// guards the layout itself).
func TestLaneHeaderRoundtrip(t *testing.T) {
	// Ctx deliberately exceeds 32 bits: Split's ctxHash yields 63-bit context
	// ids, and the header must carry them without truncation (the receiver
	// compares the full-width id, so a 32-bit wire field loses the match).
	const wideCtx = 0x7eadbeefcafe0123
	m := &mpi.Msg{Kind: mpi.KindEager, Src: 1, Dst: 0, Tag: 5, Ctx: wideCtx,
		Lane: 0xBEEF, Buf: mpi.Bytes([]byte("payload"))}
	var hdr [headerLen]byte
	encodeHeader(&hdr, m, m.Buf.Len())
	got := new(mpi.Msg)
	buflen, err := decodeHeader(&hdr, got)
	if err != nil {
		t.Fatalf("decodeHeader rejected an encoded header: %v", err)
	}
	if buflen != m.Buf.Len() {
		t.Fatalf("buflen %d, want %d", buflen, m.Buf.Len())
	}
	if got.Lane != 0xBEEF {
		t.Fatalf("lane %#x, want 0xBEEF", got.Lane)
	}
	if got.Ctx != wideCtx {
		t.Fatalf("ctx %#x, want %#x (64-bit context truncated on the wire)", got.Ctx, wideCtx)
	}
	if got.Src != 1 || got.Dst != 0 || got.Tag != 5 || got.Kind != mpi.KindEager {
		t.Fatalf("header fields corrupted: %+v", got)
	}
}
