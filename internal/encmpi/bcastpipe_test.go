package encmpi_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"encmpi/internal/aead"
	"encmpi/internal/aead/codecs"
	"encmpi/internal/cluster"
	"encmpi/internal/costmodel"
	"encmpi/internal/encmpi"
	"encmpi/internal/job"
	"encmpi/internal/mpi"
	"encmpi/internal/sched"
	"encmpi/internal/session"
	"encmpi/internal/simnet"
)

// bcastPayload builds a deterministic test payload.
func bcastPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*131 + 7)
	}
	return p
}

// TestBcastPipelinedRoundTripReal streams real bytes with real crypto down
// the binomial tree at power-of-two and non-power-of-two world sizes,
// including the empty message and exact-chunk-multiple edges.
func TestBcastPipelinedRoundTripReal(t *testing.T) {
	const chunk = 4096
	for _, p := range []int{2, 3, 5, 8} {
		for _, n := range []int{0, 1, 1000, 4096, 8192, 10000} {
			p, n := p, n
			t.Run(fmt.Sprintf("p%d/n%d", p, n), func(t *testing.T) {
				payload := bcastPayload(n)
				err := job.RunShm(p, func(c *mpi.Comm) {
					e := encmpi.Wrap(c, realEngine(t, "aesstd", c.Rank()))
					var buf mpi.Buffer
					if c.Rank() == 0 {
						buf = mpi.Bytes(payload)
					}
					got, err := e.BcastPipelined(0, 5, buf, chunk)
					if err != nil {
						t.Errorf("rank %d: %v", c.Rank(), err)
						return
					}
					if !bytes.Equal(got.Data, payload) {
						t.Errorf("rank %d: payload mismatch (%d bytes)", c.Rank(), got.Len())
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestBcastPipelinedNonZeroRoot checks the root-relative tree renumbering.
func TestBcastPipelinedNonZeroRoot(t *testing.T) {
	const root = 2
	payload := bcastPayload(9000)
	err := job.RunShm(5, func(c *mpi.Comm) {
		e := encmpi.Wrap(c, realEngine(t, "aesstd", c.Rank()))
		var buf mpi.Buffer
		if c.Rank() == root {
			buf = mpi.Bytes(payload)
		}
		got, err := e.BcastPipelined(root, 3, buf, 2048)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if !bytes.Equal(got.Data, payload) {
			t.Errorf("rank %d: payload mismatch", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBcastPipelinedParallelEngine layers the segmented broadcast on the
// chunked parallel engine: the broadcast's wire chunking and the engine's
// internal chunking are independent and must compose.
func TestBcastPipelinedParallelEngine(t *testing.T) {
	payload := bcastPayload(20000)
	err := job.RunShm(5, func(c *mpi.Comm) {
		codec, err := codecs.New("aesstd", testKey)
		if err != nil {
			t.Fatal(err)
		}
		eng := encmpi.NewParallelEngine(codec, aead.NewCounterNonce(uint32(c.Rank())), 4)
		eng.Chunk = 1024
		e := encmpi.Wrap(c, eng)
		var buf mpi.Buffer
		if c.Rank() == 0 {
			buf = mpi.Bytes(payload)
		}
		got, err := e.BcastPipelined(0, 7, buf, 4096)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if !bytes.Equal(got.Data, payload) {
			t.Errorf("rank %d: payload mismatch", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBcastPipelinedSynthetic checks length-only payloads survive the
// segmented tree on the simulator.
func TestBcastPipelinedSynthetic(t *testing.T) {
	spec := cluster.PaperTestbed(8, 2)
	const n = 1 << 20
	_, err := job.RunSim(spec, simnet.Eth10G(), func(c *mpi.Comm) {
		e := encmpi.Wrap(c, encmpi.NullEngine{})
		var buf mpi.Buffer
		if c.Rank() == 0 {
			buf = mpi.Synthetic(n)
		}
		got, err := e.BcastPipelined(0, 0, buf, 0) // default chunk
		if err != nil {
			panic(err)
		}
		if got.Len() != n {
			t.Errorf("rank %d: got %d bytes, want %d", c.Rank(), got.Len(), n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// failLargeOpen is an engine whose Open rejects anything bigger than a
// length header: it simulates a relay rank whose chunk authentications fail
// while the header still parses.
type failLargeOpen struct {
	encmpi.Engine
}

func (f failLargeOpen) OpenTo(p sched.Proc, dst []byte, wire mpi.Buffer, ctx session.RecordCtx) (mpi.Buffer, error) {
	if wire.Len() > 64 {
		return mpi.Buffer{}, fmt.Errorf("injected chunk auth failure")
	}
	return f.Engine.OpenTo(p, dst, wire, ctx)
}

// TestBcastPipelinedAuthFailureStillRelays pins the hostile-bytes contract:
// an interior rank whose chunk decryptions fail must still forward the raw
// ciphertext, so its descendants complete with intact data while the broken
// rank reports the error. World size 4 puts rank 2 between the root and
// rank 3.
func TestBcastPipelinedAuthFailureStillRelays(t *testing.T) {
	payload := bcastPayload(4096)
	const chunk = 1024
	err := job.RunShm(4, func(c *mpi.Comm) {
		var eng encmpi.Engine = realEngine(t, "aesstd", c.Rank())
		if c.Rank() == 2 {
			eng = failLargeOpen{eng}
		}
		e := encmpi.Wrap(c, eng)
		var buf mpi.Buffer
		if c.Rank() == 0 {
			buf = mpi.Bytes(payload)
		}
		got, err := e.BcastPipelined(0, 5, buf, chunk)
		if c.Rank() == 2 {
			if err == nil {
				t.Error("rank 2: injected auth failure did not surface")
			}
			return
		}
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if !bytes.Equal(got.Data, payload) {
			t.Errorf("rank %d: payload mismatch", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBcastPipelinedBeatsBcast is the point of the pipelined tree: with
// slow crypto on a fast simulated network, streaming sealed chunks down the
// binomial tree must beat the monolithic encrypted Bcast at 1 MiB, because
// each chunk's crypto overlaps its neighbours' descent.
func TestBcastPipelinedBeatsBcast(t *testing.T) {
	p, err := costmodel.Lookup("cryptopp", costmodel.MVAPICH, 256)
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	const ranks, nodes = 8, 2
	run := func(pipelined bool) time.Duration {
		spec := cluster.PaperTestbed(ranks, nodes)
		var elapsed time.Duration
		_, err := job.RunSim(spec, simnet.IB40G(), func(c *mpi.Comm) {
			e := encmpi.Wrap(c, encmpi.NewModelEngine(p))
			var buf mpi.Buffer
			if c.Rank() == 0 {
				buf = mpi.Synthetic(size)
			}
			c.Barrier()
			start := c.Proc().Now()
			var err error
			if pipelined {
				_, err = e.BcastPipelined(0, 1, buf, 128<<10)
			} else {
				_, err = e.Bcast(0, buf)
			}
			if err != nil {
				panic(err)
			}
			// The collective's cost is when the last rank finishes.
			c.Barrier()
			if c.Rank() == 0 {
				elapsed = c.Proc().Now() - start
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	mono := run(false)
	pipe := run(true)
	t.Logf("bcast %v, bcastpipe %v (improvement %.1f%%)", mono, pipe,
		100*(1-float64(pipe)/float64(mono)))
	if pipe >= mono {
		t.Errorf("pipelined bcast (%v) not faster than monolithic (%v)", pipe, mono)
	}
}
