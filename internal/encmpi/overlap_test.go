package encmpi_test

import (
	"sync"
	"testing"

	"encmpi/internal/encmpi"
	"encmpi/internal/job"
	"encmpi/internal/mpi"
	"encmpi/internal/obs"
	"encmpi/internal/sched"
	"encmpi/internal/session"
	"encmpi/internal/transport/shm"
)

// TestPipelineOverlapSmoke is the CI gate for the tentpole property: over
// the real TCP transport — whose asynchronous wire engine is what makes
// seal-while-sending possible — a 1 MiB encrypted transfer must record
// nonzero seal-overlap time in the metrics, i.e. chunk k+1 was measurably
// sealed while chunk k was still draining. shm cannot pin this: its Send
// delivers synchronously, so injection never lags production there.
func TestPipelineOverlapSmoke(t *testing.T) {
	const n = 1 << 20
	const rounds = 4
	reg := obs.NewRegistry(2)
	err := job.RunTCPOpts(2, job.Options{Metrics: reg}, func(c *mpi.Comm) {
		// 32 KiB chunks: 32 frames per message, plenty of claim points where
		// production is ahead of the wire.
		e := encmpi.Wrap(c, realEngine(t, "aesstd", c.Rank()),
			encmpi.ObserveWith(reg.Rank(c.Rank())),
			encmpi.WithPipeline(64<<10, 32<<10))
		payload := patterned(n)
		for r := 0; r < rounds; r++ {
			switch c.Rank() {
			case 0:
				if err := e.Send(1, r, mpi.Bytes(payload)); err != nil {
					t.Error(err)
					return
				}
			case 1:
				got, _, err := e.Recv(0, r)
				if err != nil {
					t.Error(err)
					return
				}
				got.Release()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	pipe := snap.Total.Pipeline
	wantChunks := uint64(rounds * (n / (32 << 10)))
	if pipe.ChunksSent != wantChunks || pipe.ChunksOpened != wantChunks {
		t.Errorf("pipeline moved %d/%d chunks, want %d", pipe.ChunksSent, pipe.ChunksOpened, wantChunks)
	}
	if pipe.SealOverlapNanos <= 0 {
		t.Errorf("no seal-while-sending overlap recorded (%d ns): the pipeline ran serialized", pipe.SealOverlapNanos)
	}
	t.Logf("overlap: seal %dµs, open %dµs across %d chunks",
		pipe.SealOverlapNanos/1e3, pipe.OpenOverlapNanos/1e3, pipe.ChunksSent)
}

// TestChunkedAllocRegression pins the allocation cost of one transparent
// chunked 1 MiB exchange (8 sealed rendezvous frames, opened per chunk into
// one pooled assembly) on a warm world. The budget is protocol overhead
// only — Msg frames, requests, closures — because every payload-sized
// buffer (wire chunks, plaintext chunks, the assembly) comes from the pool.
func TestChunkedAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are meaningless")
	}
	const n = 1 << 20
	tr := shm.New()
	w := mpi.NewWorld(2, tr, 64<<10)
	tr.Bind(w)
	var g sched.Group
	comms := []*mpi.Comm{w.AttachRank(0, g.Proc()), w.AttachRank(1, g.Proc())}
	encs := make([]*encmpi.Comm, 2)
	for i, c := range comms {
		encs[i] = encmpi.Wrap(c, realEngine(t, "aesstd", i))
	}

	payload := mpi.Bytes(patterned(n))
	start := make(chan struct{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range start {
			got, _, err := encs[1].Recv(0, 0)
			if err != nil {
				t.Error(err)
			}
			got.Release()
			done <- struct{}{}
		}
	}()
	round := func() {
		start <- struct{}{}
		if err := encs[0].Send(1, 0, payload); err != nil {
			t.Error(err)
		}
		<-done
	}
	for i := 0; i < 3; i++ {
		round() // warm the pools and the nonce scratch
	}
	allocs := testing.AllocsPerRun(10, round)
	close(start)
	wg.Wait()

	// Measured steady state is ~30 allocs per 1 MiB exchange (8 chunks ×
	// {frame, header, hook closures} + 2 requests + park/unpark traffic).
	// 128 leaves headroom for scheduler noise while still catching a
	// per-chunk payload-sized allocation (which would add ≥ 8 at once,
	// growing with any future chunk-count change, and blow the pool win).
	const budget = 128
	if allocs > budget {
		t.Errorf("chunked 1 MiB exchange: %.0f allocs, budget %d", allocs, budget)
	}
	t.Logf("chunked 1 MiB exchange: %.0f allocs", allocs)
}

// TestSessionPingPongAllocs pins the allocation cost of one 1 KiB session
// ping-pong over the shm slot rings on a warm world — the merged
// seal-into-slot / open-in-place path. Both records are sealed straight into
// ring slots and opened from them, so what remains is protocol overhead
// (requests, frames, completion closures); in particular deriving a record
// context costs no allocation.
func TestSessionPingPongAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are meaningless")
	}
	tr := shm.New()
	w := mpi.NewWorld(2, tr, 64<<10)
	tr.Bind(w)
	var g sched.Group
	encs := make([]*encmpi.Comm, 2)
	for i := range encs {
		encs[i] = encmpi.Wrap(w.AttachRank(i, g.Proc()), sessionEngine(t, session.Config{Key: testKey}, i, 2, nil))
	}

	payload := mpi.Bytes(patterned(1 << 10))
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range start {
			got, _, err := encs[1].Recv(0, 0)
			if err != nil {
				t.Error(err)
			}
			got.Release()
			if err := encs[1].Send(0, 0, payload); err != nil {
				t.Error(err)
			}
		}
	}()
	round := func() {
		start <- struct{}{}
		if err := encs[0].Send(1, 0, payload); err != nil {
			t.Error(err)
		}
		got, _, err := encs[0].Recv(1, 0)
		if err != nil {
			t.Error(err)
		}
		got.Release()
	}
	for i := 0; i < 3; i++ {
		round() // warm the pools and the rings
	}
	allocs := testing.AllocsPerRun(100, round)
	close(start)
	wg.Wait()

	// 22 is the count measured before the one-contract refactor, which paid
	// four heap-allocated record contexts per round trip; by-value contexts
	// measure 18. The rest is protocol overhead: requests, frames, closures.
	const budget = 22
	if allocs > budget {
		t.Errorf("1 KiB session ping-pong: %.0f allocs, budget %d", allocs, budget)
	}
	t.Logf("1 KiB session ping-pong: %.0f allocs", allocs)
}
