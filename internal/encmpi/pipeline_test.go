package encmpi_test

import (
	"testing"
	"time"

	"encmpi/internal/cluster"
	"encmpi/internal/costmodel"
	"encmpi/internal/encmpi"
	"encmpi/internal/job"
	"encmpi/internal/mpi"
	"encmpi/internal/simnet"
)

// TestChunkedSynthetic checks length-only payloads survive the transparent
// chunked path: the sink's synthetic arm counts lengths, never bytes.
func TestChunkedSynthetic(t *testing.T) {
	spec := cluster.PaperTestbed(2, 2)
	_, err := job.RunSim(spec, simnet.Eth10G(), func(c *mpi.Comm) {
		e := encmpi.Wrap(c, encmpi.NullEngine{})
		const n = 1 << 20 // above the default threshold: 8 chunks
		switch c.Rank() {
		case 0:
			if err := e.Send(1, 0, mpi.Synthetic(n)); err != nil {
				t.Error(err)
			}
		case 1:
			got, _, err := e.Recv(0, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if !got.IsSynthetic() || got.Len() != n {
				t.Errorf("got %d bytes (synthetic %v)", got.Len(), got.IsSynthetic())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedOverlapBeatsMonolithic is the point of the extension: with a
// slow crypto library on a fast simulated network, the chunked transfer must
// be faster than sealing the whole message up front, because encryption
// overlaps the wire.
func TestPipelinedOverlapBeatsMonolithic(t *testing.T) {
	p, err := costmodel.Lookup("cryptopp", costmodel.MVAPICH, 256)
	if err != nil {
		t.Fatal(err)
	}
	const size = 4 << 20
	run := func(pipelined bool) time.Duration {
		spec := cluster.PaperTestbed(2, 2)
		var elapsed time.Duration
		_, err := job.RunSim(spec, simnet.IB40G(), func(c *mpi.Comm) {
			// The ablation compares the chunked overlap against a genuinely
			// monolithic transfer: chunking off versus 256 KiB chunks.
			opt := encmpi.WithPipeline(-1, 0)
			if pipelined {
				opt = encmpi.WithPipeline(0, 256<<10)
			}
			e := encmpi.Wrap(c, encmpi.NewModelEngine(p), opt)
			switch c.Rank() {
			case 0:
				start := c.Proc().Now()
				if err := e.Send(1, 0, mpi.Synthetic(size)); err != nil {
					panic(err)
				}
				if _, _, err := e.Recv(1, 9); err != nil {
					panic(err)
				}
				elapsed = c.Proc().Now() - start
			case 1:
				if _, _, err := e.Recv(0, 0); err != nil {
					panic(err)
				}
				e.Send(0, 9, mpi.Synthetic(1))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	mono := run(false)
	pipe := run(true)
	if pipe >= mono {
		t.Errorf("pipelined (%v) not faster than monolithic (%v)", pipe, mono)
	}
	// The theoretical ceiling is max(crypto, wire) + one chunk of each; at
	// CryptoPP speeds crypto dominates, so expect at least ~25% improvement.
	if float64(pipe) > 0.85*float64(mono) {
		t.Logf("pipelined %v vs monolithic %v (improvement %.1f%%)", pipe, mono,
			100*(1-float64(pipe)/float64(mono)))
		t.Error("pipeline overlap gained less than 15%")
	}
}
