package mpi_test

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encmpi/internal/job"
	"encmpi/internal/mpi"
	"encmpi/internal/sched"
	"encmpi/internal/transport/shm"
)

// chunkPattern builds a recognizable payload for chunk k of the given size.
func chunkPattern(k, size int) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = byte(0x11*k + i)
	}
	return out
}

// chunkSrc returns a chunked-send source producing count chunks of size
// bytes each, with chunkPattern contents.
func chunkSrc(count, size int) func(k int) (mpi.Buffer, error) {
	return func(k int) (mpi.Buffer, error) {
		return mpi.Bytes(chunkPattern(k, size)), nil
	}
}

// isendChunks starts a hookless chunked send on fresh request storage.
func isendChunks(c *mpi.Comm, dst, tag, wireTotal, count int, src func(k int) (mpi.Buffer, error)) *mpi.Request {
	req := new(mpi.Request)
	c.StartSendChunks(req, nil, dst, tag, wireTotal, count, src)
	return req
}

// funcHook adapts two funcs to mpi.Hook, so a test can stand in for the
// layered request the encrypted layer installs. A nil complete passes the
// outcome through.
type funcHook struct {
	complete func(buf mpi.Buffer, st mpi.Status, err error) (mpi.Buffer, error)
	chunk    func(k, count, wireTotal, src, tag int, chunk mpi.Buffer) (mpi.Buffer, error)
}

func (h *funcHook) Complete(buf mpi.Buffer, st mpi.Status, err error) (mpi.Buffer, error) {
	if h.complete == nil {
		return buf, err
	}
	return h.complete(buf, st, err)
}

func (h *funcHook) Chunk(k, count, wireTotal, src, tag int, chunk mpi.Buffer) (mpi.Buffer, error) {
	return h.chunk(k, count, wireTotal, src, tag, chunk)
}

// irecvHook posts a receive on fresh request storage with h installed.
func irecvHook(c *mpi.Comm, src, tag int, h mpi.Hook) *mpi.Request {
	req := new(mpi.Request)
	c.StartRecv(req, h, src, tag)
	return req
}

// TestChunkedRendezvousRoundTrip sends a chunked rendezvous exchange into a
// plain Irecv: the default sink must reassemble the frames, in order, into
// one contiguous payload with correct status, on both transports.
func TestChunkedRendezvousRoundTrip(t *testing.T) {
	const count, size = 4, 1000
	want := make([]byte, 0, count*size)
	for k := 0; k < count; k++ {
		want = append(want, chunkPattern(k, size)...)
	}
	runBoth(t, 2, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			req := isendChunks(c, 1, 5, count*size, count, chunkSrc(count, size))
			c.Wait(req)
			if err := req.Err(); err != nil {
				t.Errorf("chunked send failed: %v", err)
			}
		case 1:
			buf, st := c.Recv(0, 5)
			if st.Source != 0 || st.Tag != 5 || st.Len != count*size {
				t.Errorf("status %+v", st)
			}
			if !buf.IsSynthetic() && !bytes.Equal(buf.Data, want) {
				t.Error("chunked payload mis-assembled")
			}
			buf.Release()
		}
	})
}

// TestChunkedSinkConsumesInOrder drives a receive through a hook's Chunk and
// checks the sink contract: in-order chunk indices, correct count and wire
// total on every call, and the sink's final buffer becoming the payload.
func TestChunkedSinkConsumesInOrder(t *testing.T) {
	const count, size = 5, 700
	if err := job.RunShm(2, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			req := isendChunks(c, 1, 3, count*size, count, chunkSrc(count, size))
			c.Wait(req)
			if err := req.Err(); err != nil {
				t.Errorf("chunked send failed: %v", err)
			}
		case 1:
			var ks []int
			var asm []byte
			req := irecvHook(c, 0, 3, &funcHook{chunk: func(k, n, wireTotal, src, tag int, chunk mpi.Buffer) (mpi.Buffer, error) {
				ks = append(ks, k)
				if n != count || wireTotal != count*size {
					t.Errorf("sink called with count %d total %d", n, wireTotal)
				}
				if src != 0 || tag != 3 {
					t.Errorf("sink called with src %d tag %d", src, tag)
				}
				asm = append(asm, chunk.Data...)
				if k == n-1 {
					return mpi.Bytes(asm), nil
				}
				return mpi.Buffer{}, nil
			}})
			buf, st := c.Wait(req)
			for i, k := range ks {
				if i != k {
					t.Fatalf("sink saw chunk order %v", ks)
				}
			}
			if len(ks) != count {
				t.Fatalf("sink ran %d times, want %d", len(ks), count)
			}
			if st.Len != count*size || buf.Len() != count*size {
				t.Errorf("assembled %d bytes, status %+v", buf.Len(), st)
			}
			if !bytes.Equal(buf.Data[:size], chunkPattern(0, size)) {
				t.Error("sink assembly corrupted")
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedSinkErrorFailsReceive: a sink rejecting a chunk (the encrypted
// layer's authentication failure) must fail the receive with that error —
// and only the receive; the sender's chunks all drained, so it completes.
func TestChunkedSinkErrorFailsReceive(t *testing.T) {
	const count, size = 4, 900
	bad := errors.New("chunk 2 rejected")
	if err := job.RunShm(2, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			req := isendChunks(c, 1, 1, count*size, count, chunkSrc(count, size))
			c.Wait(req)
			if err := req.Err(); err != nil {
				t.Errorf("sender failed: %v", err)
			}
		case 1:
			req := irecvHook(c, 0, 1, &funcHook{chunk: func(k, n, wireTotal, src, tag int, chunk mpi.Buffer) (mpi.Buffer, error) {
				if k == 2 {
					return mpi.Buffer{}, bad
				}
				if k == n-1 {
					return mpi.Bytes([]byte("unreachable")), nil
				}
				return mpi.Buffer{}, nil
			}})
			c.Wait(req)
			if err := req.Err(); !errors.Is(err, bad) {
				t.Errorf("receive Err() = %v, want %v", err, bad)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWaitHookClaimedOnceUnderConcurrentWaiters is the regression test for
// the hook-claim race: many goroutines Wait on the same request, the
// completion hook must run exactly once, and no waiter may return before
// the hook's result is stored. Run with -race.
func TestWaitHookClaimedOnceUnderConcurrentWaiters(t *testing.T) {
	const waiters = 8
	payload := bytes.Repeat([]byte{0x7E}, 128<<10)
	if err := job.RunShm(2, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			// Give the waiters time to pile up parked on the proc first.
			time.Sleep(2 * time.Millisecond)
			if err := c.Send(1, 4, mpi.Bytes(payload)); err != nil {
				t.Error(err)
			}
		case 1:
			var hookRuns atomic.Int32
			req := irecvHook(c, 0, 4, &funcHook{complete: func(buf mpi.Buffer, _ mpi.Status, err error) (mpi.Buffer, error) {
				hookRuns.Add(1)
				// Widen the race window: other waiters must park until the
				// hook finishes, then observe the swapped buffer.
				time.Sleep(time.Millisecond)
				buf.Release()
				return mpi.Bytes([]byte("swapped")), err
			}})
			var wg sync.WaitGroup
			for i := 0; i < waiters; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf, _ := c.Wait(req)
					if string(buf.Data) != "swapped" {
						t.Errorf("waiter saw %q before the hook finished", buf.Data)
					}
				}()
			}
			wg.Wait()
			if n := hookRuns.Load(); n != 1 {
				t.Errorf("hook ran %d times", n)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// segTamper wraps the shm transport and rewrites chunked DataSeg frames in
// flight — the wire adversary aimed specifically at the multi-frame
// rendezvous protocol.
type segTamper struct {
	inner mpi.Transport
	mu    sync.Mutex
	// onSeg, when non-nil, decides what to forward for one DataSeg frame.
	// It runs under the mutex; forwarded messages are sent in order.
	onSeg func(m *mpi.Msg) []*mpi.Msg
}

func (tt *segTamper) Send(from sched.Proc, m *mpi.Msg) error {
	tt.mu.Lock()
	f := tt.onSeg
	var out []*mpi.Msg
	if f != nil && m.Kind == mpi.KindDataSeg {
		out = f(m)
	} else {
		out = []*mpi.Msg{m}
	}
	tt.mu.Unlock()
	var firstErr error
	for _, mm := range out {
		if err := tt.inner.Send(from, mm); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// cloneSeg copies a DataSeg with independent payload storage, keeping or
// stripping the completion listener.
func cloneSeg(m *mpi.Msg, keepDone bool) *mpi.Msg {
	mm := *m
	mm.Buf = m.Buf.Clone()
	if !keepDone {
		mm.Done = nil
	}
	return &mm
}

// newTamperWorld builds a 2-rank world over shm with the tamper layer
// interposed, one wall-clock proc per rank.
func newTamperWorld(t *testing.T) (*segTamper, []*mpi.Comm) {
	t.Helper()
	inner := shm.New()
	tt := &segTamper{inner: inner}
	w := mpi.NewWorld(2, tt, 64<<10)
	inner.Bind(w)
	var g sched.Group
	comms := make([]*mpi.Comm, 2)
	for i := range comms {
		comms[i] = w.AttachRank(i, g.Proc())
	}
	return tt, comms
}

// runChunkedAdversary performs one tampered chunked exchange and returns the
// receiver's error. The sender is expected to complete (its frames all
// drain locally; the damage is downstream).
func runChunkedAdversary(t *testing.T, tt *segTamper, comms []*mpi.Comm) error {
	t.Helper()
	const count, size = 3, 2000
	var recvErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := comms[1].Irecv(0, 9)
		comms[1].Wait(req)
		recvErr = req.Err()
	}()
	sreq := isendChunks(comms[0], 1, 9, count*size, count, chunkSrc(count, size))
	comms[0].Wait(sreq)
	if err := sreq.Err(); err != nil {
		t.Errorf("sender failed: %v", err)
	}
	<-done
	return recvErr
}

// TestChunkedAdversary runs frame-level attacks on the chunked rendezvous
// stream: every mutation must fail the receive with ErrTransport — never
// panic, never hang, never mis-assemble into a successful receive.
func TestChunkedAdversary(t *testing.T) {
	cases := []struct {
		name string
		mut  func() func(m *mpi.Msg) []*mpi.Msg
	}{
		{"truncate-mid-chunk", func() func(m *mpi.Msg) []*mpi.Msg {
			hit := false
			return func(m *mpi.Msg) []*mpi.Msg {
				if m.DataLen == 1 && !hit {
					hit = true
					short := cloneSeg(m, true)
					short.Buf = mpi.Bytes(short.Buf.Data[:short.Buf.Len()-7])
					return []*mpi.Msg{short}
				}
				return []*mpi.Msg{m}
			}
		}},
		{"reorder-frames", func() func(m *mpi.Msg) []*mpi.Msg {
			var held *mpi.Msg
			return func(m *mpi.Msg) []*mpi.Msg {
				if m.DataLen == 0 && held == nil {
					held = cloneSeg(m, true)
					return nil
				}
				if held != nil {
					h := held
					held = nil
					return []*mpi.Msg{m, h}
				}
				return []*mpi.Msg{m}
			}
		}},
		{"duplicate-frame", func() func(m *mpi.Msg) []*mpi.Msg {
			hit := false
			return func(m *mpi.Msg) []*mpi.Msg {
				if m.DataLen == 0 && !hit {
					hit = true
					return []*mpi.Msg{m, cloneSeg(m, false)}
				}
				return []*mpi.Msg{m}
			}
		}},
		{"forged-index", func() func(m *mpi.Msg) []*mpi.Msg {
			return func(m *mpi.Msg) []*mpi.Msg {
				if m.DataLen == 1 {
					forged := cloneSeg(m, true)
					forged.DataLen = 7
					return []*mpi.Msg{forged}
				}
				return []*mpi.Msg{m}
			}
		}},
		{"forged-count", func() func(m *mpi.Msg) []*mpi.Msg {
			return func(m *mpi.Msg) []*mpi.Msg {
				if m.DataLen == 1 {
					forged := cloneSeg(m, true)
					forged.Chunks = 99
					return []*mpi.Msg{forged}
				}
				return []*mpi.Msg{m}
			}
		}},
		{"extend-chunk", func() func(m *mpi.Msg) []*mpi.Msg {
			hit := false
			return func(m *mpi.Msg) []*mpi.Msg {
				if m.DataLen == 1 && !hit {
					hit = true
					long := cloneSeg(m, true)
					long.Buf = mpi.Bytes(append(long.Buf.Data, bytes.Repeat([]byte{0x5A}, 4097)...))
					return []*mpi.Msg{long}
				}
				return []*mpi.Msg{m}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tt, comms := newTamperWorld(t)
			tt.mu.Lock()
			tt.onSeg = tc.mut()
			tt.mu.Unlock()
			err := runChunkedAdversary(t, tt, comms)
			if !errors.Is(err, mpi.ErrTransport) {
				t.Fatalf("receive Err() = %v, want ErrTransport", err)
			}
		})
	}
}

// TestChunkedAdversaryUntampered sanity-checks the harness: with no
// mutation installed the tampered world must deliver a clean exchange.
func TestChunkedAdversaryUntampered(t *testing.T) {
	tt, comms := newTamperWorld(t)
	if err := runChunkedAdversary(t, tt, comms); err != nil {
		t.Fatalf("clean exchange failed: %v", err)
	}
}

// TestChunkedOvershootFailsFast: the first frame that pushes the byte count
// past the RTS announcement must fail the receive immediately — even when
// the surplus frames still carry plausible indices. The extend-chunk
// adversary above grows a middle chunk; this one grows the stream by
// splitting honest frames so every index stays valid until the overshoot.
func TestChunkedOvershootFailsFast(t *testing.T) {
	tt, comms := newTamperWorld(t)
	tt.mu.Lock()
	tt.onSeg = func(m *mpi.Msg) []*mpi.Msg {
		grown := cloneSeg(m, true)
		grown.Buf = mpi.Bytes(append(grown.Buf.Data, 0xEE))
		return []*mpi.Msg{grown}
	}
	tt.mu.Unlock()
	err := runChunkedAdversary(t, tt, comms)
	if !errors.Is(err, mpi.ErrTransport) {
		t.Fatalf("receive Err() = %v, want ErrTransport", err)
	}
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("exceed")) && !bytes.Contains([]byte(err.Error()), []byte("announced")) {
		t.Fatalf("error %v does not describe the overshoot", err)
	}
}

// TestChunkedStressManyExchanges floods one pair with back-to-back chunked
// exchanges in both directions to shake out progress-engine races (run with
// -race); Sendrecv forces each rank to drive its send while waiting on its
// receive.
func TestChunkedStressManyExchanges(t *testing.T) {
	const rounds, count, size = 50, 4, 512
	if err := job.RunShm(2, func(c *mpi.Comm) {
		peer := 1 - c.Rank()
		for r := 0; r < rounds; r++ {
			rreq := c.Irecv(peer, r)
			sreq := isendChunks(c, peer, r, count*size, count, chunkSrc(count, size))
			buf, st := c.Wait(rreq)
			c.Wait(sreq)
			if err := sreq.Err(); err != nil {
				t.Errorf("round %d send: %v", r, err)
				return
			}
			if err := rreq.Err(); err != nil {
				t.Errorf("round %d recv: %v", r, err)
				return
			}
			if st.Len != count*size || buf.Len() != count*size {
				t.Errorf("round %d: got %d bytes", r, buf.Len())
				return
			}
			buf.Release()
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSendChunksArgValidation: impossible chunk geometries must panic at
// the call site (programmer error, not wire data).
func TestSendChunksArgValidation(t *testing.T) {
	if err := job.RunShm(2, func(c *mpi.Comm) {
		if c.Rank() != 0 {
			return
		}
		for _, tc := range []struct{ total, count int }{{100, 0}, {-1, 2}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("StartSendChunks(%d, %d) did not panic", tc.total, tc.count)
					}
				}()
				isendChunks(c, 1, 0, tc.total, tc.count, chunkSrc(1, 1))
			}()
		}
	}); err != nil {
		t.Fatal(err)
	}
}
