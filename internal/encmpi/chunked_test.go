package encmpi_test

import (
	"bytes"
	"errors"
	"testing"

	"encmpi/internal/aead"
	"encmpi/internal/aead/codecs"
	"encmpi/internal/encmpi"
	"encmpi/internal/job"
	"encmpi/internal/mpi"
	"encmpi/internal/sched"
	"encmpi/internal/session"
)

// patterned builds an n-byte payload with position-dependent contents so any
// mis-assembly (swapped, duplicated, shifted chunks) changes the bytes.
func patterned(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + i>>9)
	}
	return out
}

// TestBcastPipelinedChunkMismatchNegotiated is the regression test for the
// chunk-size negotiation fix: the two sides pass different chunk arguments,
// and the broadcast must still be byte-exact because the relay cuts the
// stream where the root's announced chunk size says, not where its own
// argument would.
func TestBcastPipelinedChunkMismatchNegotiated(t *testing.T) {
	payload := patterned(10_000)
	for _, tc := range []struct{ rootChunk, relayChunk int }{
		{3000, 1000},
		{1000, 3000},
		{4096, 0}, // relay passes "default", root does not
	} {
		runEncrypted(t, 2, "aesstd", func(e *encmpi.Comm) {
			buf, chunk := mpi.Buffer{}, tc.relayChunk
			if e.Rank() == 0 {
				buf, chunk = mpi.Bytes(payload), tc.rootChunk
			}
			got, err := e.BcastPipelined(0, 2, buf, chunk)
			if err != nil {
				t.Errorf("rank %d, relay chunk %d vs root %d: %v", e.Rank(), tc.relayChunk, tc.rootChunk, err)
				return
			}
			if !bytes.Equal(got.Data, payload) {
				t.Errorf("chunk %d vs %d: payload corrupted", tc.rootChunk, tc.relayChunk)
			}
		})
	}
}

// pipeHeader hand-assembles the 16-byte little-endian announcement header
// (total ‖ chunk) the way a hostile sender would.
func pipeHeader(total, chunk uint64) []byte {
	out := make([]byte, 16)
	for i := 0; i < 8; i++ {
		out[i] = byte(total >> (8 * i))
		out[8+i] = byte(chunk >> (8 * i))
	}
	return out
}

// TestBcastPipelinedHostileHeaderRejected: a header announcing a zero chunk
// size, or a chunk size demanding an absurd number of chunk receives, must
// be rejected as malformed wire before any chunk receive is posted. Rank 0
// plays the hostile root by hand: an ordinary encrypted Send at the
// broadcast's tag is exactly the sealed header frame a relay expects.
func TestBcastPipelinedHostileHeaderRejected(t *testing.T) {
	for _, tc := range []struct {
		name         string
		total, chunk uint64
	}{
		{"zero-chunk", 1 << 20, 0},
		{"absurd-chunk-count", 1 << 40, 1},
		{"absurd-total", 1 << 50, 1 << 20},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runEncrypted(t, 2, "aesstd", func(e *encmpi.Comm) {
				switch e.Rank() {
				case 0:
					if err := e.Send(1, 3, mpi.Bytes(pipeHeader(tc.total, tc.chunk))); err != nil {
						t.Error(err)
					}
				case 1:
					_, err := e.BcastPipelined(0, 3, mpi.Buffer{}, 0)
					if !errors.Is(err, encmpi.ErrMalformedWire) {
						t.Errorf("hostile header error = %v, want ErrMalformedWire", err)
					}
				}
			})
		})
	}
}

// TestBcastPipelinedOvershootMalformed is the regression test for the
// overshoot fix: a root pushing more chunk bytes than its header announced
// must fail the relay with a malformed-wire error — not assemble out of
// bounds, not truncate silently.
func TestBcastPipelinedOvershootMalformed(t *testing.T) {
	runEncrypted(t, 2, "aesstd", func(e *encmpi.Comm) {
		const stride = 1 << 20 // pipelineTagStride: chunk k rides tag+stride*(k+1)
		switch e.Rank() {
		case 0:
			// Announce 4000 bytes in 2000-byte chunks, then send two
			// 3000-byte chunks: chunk 1 overruns the announcement.
			if err := e.Send(1, 4, mpi.Bytes(pipeHeader(4000, 2000))); err != nil {
				t.Error(err)
			}
			for k := 0; k < 2; k++ {
				if err := e.Send(1, 4+stride*(k+1), mpi.Bytes(patterned(3000))); err != nil {
					t.Errorf("chunk %d: %v", k, err)
				}
			}
		case 1:
			_, err := e.BcastPipelined(0, 4, mpi.Buffer{}, 0)
			if !errors.Is(err, encmpi.ErrMalformedWire) {
				t.Errorf("overshoot error = %v, want ErrMalformedWire", err)
			}
		}
	})
}

// TestTransparentChunkedRoundTrip drives the DESIGN.md §12 path end to end:
// a payload above the pipeline threshold travels as sealed rendezvous chunks
// through plain Send/Recv — no explicit pipelined calls — and must arrive
// byte-exact with correct status, across several geometries including a
// non-multiple final chunk.
func TestTransparentChunkedRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name             string
		threshold, chunk int
		n                int
	}{
		{"default-geometry", 0, 0, 1 << 20},
		{"small-chunks", 16 << 10, 4 << 10, 64 << 10},
		{"ragged-final-chunk", 16 << 10, 4 << 10, 50_001},
		{"exactly-threshold", 32 << 10, 8 << 10, 32 << 10},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			payload := patterned(tc.n)
			err := job.RunShm(2, func(c *mpi.Comm) {
				e := encmpi.Wrap(c, realEngine(t, "aesstd", c.Rank()),
					encmpi.WithPipeline(tc.threshold, tc.chunk))
				switch c.Rank() {
				case 0:
					if err := e.Send(1, 6, mpi.Bytes(payload)); err != nil {
						t.Error(err)
					}
				case 1:
					got, st, err := e.Recv(0, 6)
					if err != nil {
						t.Error(err)
						return
					}
					if st.Source != 0 || st.Tag != 6 || st.Len != tc.n {
						t.Errorf("status %+v", st)
					}
					if !bytes.Equal(got.Data, payload) {
						t.Error("transparent chunked payload corrupted")
					}
					got.Release()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTransparentChunkedIsend exercises the non-blocking form: Isend above
// the threshold plus Irecv, completion through encmpi.Wait on both sides.
func TestTransparentChunkedIsend(t *testing.T) {
	const n = 96 << 10
	payload := patterned(n)
	err := job.RunShm(2, func(c *mpi.Comm) {
		e := encmpi.Wrap(c, realEngine(t, "aesstd", c.Rank()),
			encmpi.WithPipeline(32<<10, 16<<10))
		switch c.Rank() {
		case 0:
			req := e.Isend(1, 7, mpi.Bytes(payload))
			if _, _, err := e.Wait(req); err != nil {
				t.Errorf("chunked Isend: %v", err)
			}
		case 1:
			req := e.Irecv(0, 7)
			got, st, err := e.Wait(req)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Len != n || !bytes.Equal(got.Data, payload) {
				t.Error("chunked Irecv corrupted")
			}
			got.Release()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTransparentChunkedAuthFailure: with mismatched keys, the receiver's
// first per-chunk Open fails authentication inside Wait. The receive must
// fail with ErrAuth, the sender must still complete (its chunks all drain),
// and nothing may hang or panic.
func TestTransparentChunkedAuthFailure(t *testing.T) {
	keyFor := func(rank int) []byte {
		key := bytes.Repeat([]byte{0x42}, 32)
		key[0] = byte(rank) // ranks disagree → every open fails on rank 1
		return key
	}
	err := job.RunShm(2, func(c *mpi.Comm) {
		codec, err := codecs.New("aesstd", keyFor(c.Rank()))
		if err != nil {
			t.Error(err)
			return
		}
		e := encmpi.Wrap(c, encmpi.NewRealEngine(codec, aead.NewCounterNonce(uint32(c.Rank()))),
			encmpi.WithPipeline(16<<10, 4<<10))
		switch c.Rank() {
		case 0:
			if err := e.Send(1, 8, mpi.Bytes(patterned(64<<10))); err != nil {
				t.Errorf("sender must complete even when the receiver rejects: %v", err)
			}
		case 1:
			_, _, err := e.Recv(0, 8)
			if !errors.Is(err, aead.ErrAuth) {
				t.Errorf("tampered chunk error = %v, want ErrAuth", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTransparentChunkedDisabled: WithPipeline(-1, 0) must pin the classic
// single-frame path even for huge payloads (the paper-reproduction mode).
// Indistinguishable from the chunked path by payload alone, so assert via
// the engine's call pattern: one seal, one open, regardless of size.
func TestTransparentChunkedDisabled(t *testing.T) {
	const n = 1 << 20
	payload := patterned(n)
	seals := make([]int, 2)
	err := job.RunShm(2, func(c *mpi.Comm) {
		eng := &countingEngine{Engine: realEngine(t, "aesstd", c.Rank())}
		e := encmpi.Wrap(c, eng, encmpi.WithPipeline(-1, 0))
		switch c.Rank() {
		case 0:
			if err := e.Send(1, 9, mpi.Bytes(payload)); err != nil {
				t.Error(err)
			}
			seals[0] = eng.seals
		case 1:
			got, _, err := e.Recv(0, 9)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got.Data, payload) {
				t.Error("payload corrupted")
			}
			got.Release()
			seals[1] = eng.opens
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if seals[0] != 1 || seals[1] != 1 {
		t.Errorf("disabled pipeline sealed %d times / opened %d times, want 1/1", seals[0], seals[1])
	}
}

// countingEngine wraps an engine and counts the seal/open calls the
// communicator makes (single-rank use: each rank owns its own instance, so
// no synchronization needed).
type countingEngine struct {
	encmpi.Engine
	seals int
	opens int
}

func (g *countingEngine) SealTo(p sched.Proc, dst []byte, plain mpi.Buffer, ctx session.RecordCtx) (mpi.Buffer, bool) {
	g.seals++
	return g.Engine.SealTo(p, dst, plain, ctx)
}

func (g *countingEngine) OpenTo(p sched.Proc, dst []byte, wire mpi.Buffer, ctx session.RecordCtx) (mpi.Buffer, error) {
	g.opens++
	return g.Engine.OpenTo(p, dst, wire, ctx)
}
