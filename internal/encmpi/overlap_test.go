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
	"encmpi/internal/transport/tcp"
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

// sessionPair attaches two session endpoints to a fresh 2-rank world over tr,
// which bind connects to it.
func sessionPair(t *testing.T, tr mpi.Transport, bind func(*mpi.World)) []*encmpi.Comm {
	t.Helper()
	w := mpi.NewWorld(2, tr, 64<<10)
	bind(w)
	var g sched.Group
	encs := make([]*encmpi.Comm, 2)
	for i := range encs {
		encs[i] = encmpi.Wrap(w.AttachRank(i, g.Proc()), sessionEngine(t, session.Config{Key: testKey}, i, 2, nil))
	}
	return encs
}

// allocsPerRound drives rank 1's half of a round on its own goroutine and
// returns the allocations of one warm round, both ranks together.
func allocsPerRound(t *testing.T, runs int, rank0, rank1 func()) float64 {
	t.Helper()
	start := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range start {
			rank1()
		}
	}()
	round := func() {
		start <- struct{}{}
		rank0()
	}
	for i := 0; i < 3; i++ {
		round() // warm the pools, the rings and the wire queues
	}
	allocs := testing.AllocsPerRun(runs, round)
	close(start)
	<-done
	return allocs
}

// TestSessionPingPongAllocs pins the allocation cost of one 1 KiB session
// ping-pong over the shm slot rings on a warm world: nothing. Both records
// are sealed straight into ring slots and opened from them into pooled
// plaintext, the blocking calls recycle their one request object, and the
// record context and the AAD cost no allocation.
func TestSessionPingPongAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are meaningless")
	}
	shmTr := shm.New()
	encs := sessionPair(t, shmTr, shmTr.Bind)
	payload := mpi.Bytes(patterned(1 << 10))
	recv := func(e *encmpi.Comm, from int) {
		got, _, err := e.Recv(from, 0)
		if err != nil {
			t.Error(err)
		}
		got.Release()
	}
	send := func(e *encmpi.Comm, to int) {
		if err := e.Send(to, 0, payload); err != nil {
			t.Error(err)
		}
	}
	allocs := allocsPerRound(t, 100,
		func() { send(encs[0], 1); recv(encs[0], 1) },
		func() { recv(encs[1], 0); send(encs[1], 0) })
	if allocs > 0 {
		t.Errorf("1 KiB session ping-pong: %.0f allocs, want 0", allocs)
	}
}

// TestSessionWindowAllocs pins the OSU-bw shape over TCP: 64 × 4 KiB
// Isend/Irecv/Wait and a 1-byte ack. A non-blocking operation allocates
// exactly its one request object — the handle belongs to the caller and is
// not recycled — so a warm window costs one allocation per message per side
// (128); the blocking ack pair and the TCP transport pin none. The slack
// absorbs sporadic sync.Pool refills after a collection.
func TestSessionWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are meaningless")
	}
	const window, size = 64, 4 << 10
	tr, err := tcp.New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	encs := sessionPair(t, tr, tr.Bind)
	data := patterned(window * size)
	ack := mpi.Bytes([]byte{1})
	sreqs := make([]*encmpi.Request, window)
	rreqs := make([]*encmpi.Request, window)
	allocs := allocsPerRound(t, 20,
		func() {
			for k := range sreqs {
				sreqs[k] = encs[0].Isend(1, 0, mpi.Bytes(data[k*size:(k+1)*size]))
			}
			if err := encs[0].Waitall(sreqs); err != nil {
				t.Error(err)
			}
			got, _, err := encs[0].Recv(1, 0)
			if err != nil {
				t.Error(err)
			}
			got.Release()
		},
		func() {
			for k := range rreqs {
				rreqs[k] = encs[1].Irecv(0, 0)
			}
			for _, req := range rreqs {
				got, _, err := encs[1].Wait(req)
				if err != nil || got.Len() != size {
					t.Errorf("window receive: %d bytes, err %v", got.Len(), err)
				}
				got.Release()
			}
			if err := encs[1].Send(0, 0, ack); err != nil {
				t.Error(err)
			}
		})
	const perWindow, slack = 2 * window, 8
	if allocs > perWindow+slack {
		t.Errorf("64 x 4 KiB session window over tcp: %.0f allocs, want %d (one request per message per side)", allocs, perWindow)
	}
	t.Logf("64 x 4 KiB session window over tcp: %.0f allocs", allocs)
}
