package encmpi_test

// The fault sweep turns "AES-GCM authenticates every message" from folklore
// into an enforced property: for every {engine × routine × fault mode}
// cell, the receiving rank must either obtain the correct plaintext or a
// non-nil error — and no rank may ever panic, no matter what the wire
// adversary does. Unauthenticated engines (Null, Model) cannot promise
// correct-or-error, so for them the sweep enforces the panic-freedom half
// of the contract and documents the gap the encrypted engines close.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"encmpi/internal/aead"
	"encmpi/internal/encmpi"
	"encmpi/internal/mpi"
	"encmpi/internal/obs"
	"encmpi/internal/sched"
	"encmpi/internal/session"
	"encmpi/internal/transport/faulty"
	"encmpi/internal/transport/shm"
	"encmpi/internal/transport/tcp"
)

// sweepEngine describes one engine under test.
type sweepEngine struct {
	name string
	// auth: tampered bytes must surface as an error, never as wrong data.
	auth bool
	// guarded: replayed and duplicated ciphertexts must be rejected as
	// authentication failures, at every receiver.
	guarded bool
	mk      func(t *testing.T, rank, size int) encmpi.Engine
}

func sweepEngines(t *testing.T) []sweepEngine {
	t.Helper()
	// The classic engines are built from a declarative spec; the per-rank
	// nonce prefix is the only field rewritten per rank.
	fromSpec := func(spec encmpi.EngineSpec) func(t *testing.T, rank, size int) encmpi.Engine {
		return func(t *testing.T, rank, _ int) encmpi.Engine {
			s := spec
			s.NoncePrefix = uint32(rank)
			eng, err := encmpi.NewEngine(s)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
	}
	return []sweepEngine{
		{name: "null", mk: fromSpec(encmpi.EngineSpec{Kind: "null"})},
		{name: "model", mk: fromSpec(encmpi.EngineSpec{
			Kind: "model", Library: "cryptopp", Variant: "mvapich", KeyBits: 256})},
		{name: "real", auth: true, mk: fromSpec(encmpi.EngineSpec{
			Kind: "real", Codec: "aesstd", Key: testKey})},
		{name: "parallel", auth: true, mk: fromSpec(encmpi.EngineSpec{
			Kind: "parallel", Codec: "aesstd", Key: testKey, Workers: 4, Chunk: 1 << 10})},
		// The session engine binds every record to its communication context
		// and admits each (epoch, src, seq) once: the replay-defence column.
		{name: "session", auth: true, guarded: true, mk: func(t *testing.T, rank, size int) encmpi.Engine {
			return sessionEngine(t, session.Config{Key: testKey}, rank, size, nil)
		}},
	}
}

// outcome is one delivery attempt observed at a rank.
type outcome struct {
	desc     string
	got      []byte
	want     []byte
	err      error
	panicked bool
	// hard marks a violation that fails the cell regardless of engine
	// strictness (panics, transport-contract breaches).
	hard bool
}

// cell collects outcomes across the ranks of one sweep cell.
type cell struct {
	ft *faulty.Transport

	mu   sync.Mutex
	outs []outcome
}

func (c *cell) report(desc string, got mpi.Buffer, want []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.outs = append(c.outs, outcome{desc: desc, got: got.Data, want: want, err: err})
}

func (c *cell) reportPanic(desc string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.outs = append(c.outs, outcome{desc: desc, err: fmt.Errorf("panic: %v", v), panicked: true, hard: true})
}

// fail records a violation independent of the engine's strictness.
func (c *cell) fail(desc string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.outs = append(c.outs, outcome{desc: desc, err: err, hard: true})
}

// sweepPayload builds a deterministic payload distinguishable per seed.
func sweepPayload(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*131 + i*7)
	}
	return b
}

// sweepRoutine is one communication pattern of the sweep.
type sweepRoutine struct {
	name  string
	ranks int
	// eager is the protocol switch threshold for the cell's world.
	eager int
	// dropOnly marks the probe-based routine used for the Drop mode, where
	// a blocking receive would otherwise wait forever for the lost bytes.
	dropOnly bool
	// wrap configures the encrypted communicator (e.g. a lowered pipeline
	// threshold so the chunked-rendezvous path engages at sweep sizes).
	wrap []encmpi.WrapOption
	body func(c *cell, e *encmpi.Comm)
}

func sweepRoutines() []sweepRoutine {
	return []sweepRoutine{
		{
			name: "send-recv", ranks: 2, eager: 1 << 10,
			body: func(c *cell, e *encmpi.Comm) {
				eagerMsg := sweepPayload(1, 512) // below the eager threshold
				rndvMsg := sweepPayload(2, 4096) // rendezvous RTS/CTS/DATA
				switch e.Rank() {
				case 0:
					e.Send(1, 1, mpi.Bytes(eagerMsg))
					e.Send(1, 2, mpi.Bytes(rndvMsg))
				case 1:
					got, _, err := e.Recv(0, 1)
					c.report("eager", got, eagerMsg, err)
					got, _, err = e.Recv(0, 2)
					c.report("rendezvous", got, rndvMsg, err)
				}
			},
		},
		{
			// The explicit stream framing (bcastpipe.go): a sealed 16-byte
			// announcement header, then sealed chunks at strided tags. Two
			// ranks: an interior relay whose header fails to open stops
			// forwarding, which starves its subtree (documented there) — a
			// liveness gap, not a decode defect, so the sweep stays on the
			// root → leaf stream.
			name: "bcast-pipelined", ranks: 2, eager: 64 << 10,
			body: func(c *cell, e *encmpi.Comm) {
				payload := sweepPayload(3, 6<<10)
				var buf mpi.Buffer
				if e.Rank() == 0 {
					buf = mpi.Bytes(payload)
				}
				got, err := e.BcastPipelined(0, 3, buf, 1<<10)
				if e.Rank() != 0 {
					c.report("bcast-pipelined", got, payload, err)
				}
			},
		},
		{
			// The transparent chunked-rendezvous path (DESIGN.md §12): one
			// 32 KiB message travels as 16 independently sealed DataSeg
			// frames, opened inside Wait as they arrive. Truncated,
			// reordered, duplicated, corrupted, extended, or replayed chunk
			// frames must fail the receive — never panic, never hang, never
			// mis-assemble.
			name: "chunked-rendezvous", ranks: 2, eager: 1 << 10,
			wrap: []encmpi.WrapOption{encmpi.WithPipeline(8<<10, 2<<10)},
			body: func(c *cell, e *encmpi.Comm) {
				payload := sweepPayload(6, 32<<10)
				switch e.Rank() {
				case 0:
					err := e.Send(1, 5, mpi.Bytes(payload))
					c.report("chunked-send", mpi.Buffer{}, nil, err)
				case 1:
					got, _, err := e.Recv(0, 5)
					c.report("chunked-recv", got, payload, err)
				}
			},
		},
		{
			name: "bcast", ranks: 4, eager: 1 << 10,
			body: func(c *cell, e *encmpi.Comm) {
				payload := sweepPayload(4, 2<<10)
				var buf mpi.Buffer
				if e.Rank() == 0 {
					buf = mpi.Bytes(payload)
				}
				got, err := e.Bcast(0, buf)
				if e.Rank() != 0 {
					c.report("bcast", got, payload, err)
				}
			},
		},
		{
			name: "allgather", ranks: 4, eager: 1 << 10,
			body: func(c *cell, e *encmpi.Comm) {
				block := func(r int) []byte { return sweepPayload(10+r, 700) }
				out, err := e.Allgather(mpi.Bytes(block(e.Rank())))
				if err != nil {
					c.report("allgather", mpi.Buffer{}, nil, err)
					return
				}
				for i, b := range out {
					c.report(fmt.Sprintf("allgather[%d]", i), b, block(i), nil)
				}
			},
		},
		{
			// 200-byte blocks keep the wires under bruckThreshold, driving
			// the Bruck concatenate-and-split path (the clamped splitBlocks).
			name: "alltoall-bruck", ranks: 4, eager: 1 << 10,
			body: func(c *cell, e *encmpi.Comm) {
				block := func(i, j int) []byte { return sweepPayload(20+4*i+j, 200) }
				send := make([]mpi.Buffer, e.Size())
				for j := range send {
					send[j] = mpi.Bytes(block(e.Rank(), j))
				}
				out, err := e.Alltoall(send)
				if err != nil {
					c.report("alltoall", mpi.Buffer{}, nil, err)
					return
				}
				for i, b := range out {
					c.report(fmt.Sprintf("alltoall[%d]", i), b, block(i, e.Rank()), nil)
				}
			},
		},
		{
			// Ragged per-rank blocks, including a zero-length one: the
			// overlapped direct-exchange Allgatherv posts every receive up
			// front, so the sweep checks no fault can cross-match blocks
			// between the concurrent transfers.
			name: "allgatherv", ranks: 4, eager: 1 << 10,
			body: func(c *cell, e *encmpi.Comm) {
				block := func(r int) []byte { return sweepPayload(30+r, 300*r) }
				out, err := e.Allgatherv(mpi.Bytes(block(e.Rank())))
				if err != nil {
					c.report("allgatherv", mpi.Buffer{}, nil, err)
					return
				}
				for i, b := range out {
					c.report(fmt.Sprintf("allgatherv[%d]", i), b, block(i), nil)
				}
			},
		},
		{
			name: "alltoallv", ranks: 4, eager: 1 << 10,
			body: func(c *cell, e *encmpi.Comm) {
				block := func(i, j int) []byte { return sweepPayload(40+4*i+j, 100+53*i+31*j) }
				send := make([]mpi.Buffer, e.Size())
				for j := range send {
					send[j] = mpi.Bytes(block(e.Rank(), j))
				}
				out, err := e.Alltoallv(send)
				if err != nil {
					c.report("alltoallv", mpi.Buffer{}, nil, err)
					return
				}
				for i, b := range out {
					c.report(fmt.Sprintf("alltoallv[%d]", i), b, block(i, e.Rank()), nil)
				}
			},
		},
		{
			name: "drop-probe", ranks: 2, eager: 1 << 10, dropOnly: true,
			body: func(c *cell, e *encmpi.Comm) {
				payload := sweepPayload(5, 512)
				switch e.Rank() {
				case 0:
					e.Send(1, 7, mpi.Bytes(payload)) // eager: completes locally
				case 1:
					deadline := time.Now().Add(5 * time.Second)
					for c.ft.InjectedBy(faulty.Drop) == 0 && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
					if ok, _ := e.Unwrap().Iprobe(0, 7); ok {
						c.fail("drop", fmt.Errorf("dropped message is probe-visible at the receiver"))
					}
				}
			},
		},
	}
}

// skipCell returns the reason a cell is excluded, or "".
func skipCell(eng sweepEngine, rt sweepRoutine, mode faulty.Mode) string {
	if rt.dropOnly != (mode == faulty.Drop) {
		return "routine/mode pairing"
	}
	if eng.name == "null" && rt.name == "bcast-pipelined" && mode == faulty.Corrupt {
		// With no authentication, a corrupted raw length header can
		// announce bytes that never arrive: the receiver blocks, which is
		// message loss (availability), not a decode defect. The
		// authenticated engines reject the corrupted header instead.
		return "unauthenticated corrupted length header is indistinguishable from loss"
	}
	return ""
}

// TestFaultSweep is the acceptance gate for the hostile-bytes invariant.
func TestFaultSweep(t *testing.T) {
	for _, eng := range sweepEngines(t) {
		for _, mode := range faulty.AllModes {
			for _, rt := range sweepRoutines() {
				eng, mode, rt := eng, mode, rt
				if reason := skipCell(eng, rt, mode); reason != "" {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/%s", eng.name, mode, rt.name), func(t *testing.T) {
					t.Parallel()
					runSweepCell(t, eng, mode, rt, false)
				})
			}
		}
	}
}

// TestFaultSweepTCPBatched reruns the sweep's authenticated cells with the
// real TCP transport — and its asynchronous batched wire engine — underneath
// the adversary. It pins two properties the shm sweep cannot: per-pair FIFO
// survives flush coalescing (the collectives' correctness IS the FIFO
// check — a reordered pair of coalesced frames mismatches their payloads),
// and auth-failure attribution in the metrics stays exact even though the
// frames that fail authentication were written batches-at-a-time.
func TestFaultSweepTCPBatched(t *testing.T) {
	for _, eng := range sweepEngines(t) {
		if !eng.auth {
			// The unauthenticated engines' contract (panic-freedom) is
			// already pinned over shm; over TCP only the authenticated
			// correct-or-error cells add coverage per added second.
			continue
		}
		for _, mode := range faulty.AllModes {
			for _, rt := range sweepRoutines() {
				eng, mode, rt := eng, mode, rt
				if reason := skipCell(eng, rt, mode); reason != "" {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/%s", eng.name, mode, rt.name), func(t *testing.T) {
					t.Parallel()
					runSweepCell(t, eng, mode, rt, true)
				})
			}
		}
	}
}

func runSweepCell(t *testing.T, eng sweepEngine, mode faulty.Mode, rt sweepRoutine, overTCP bool) {
	var inner mpi.Transport
	reg := obs.NewRegistry(rt.ranks)
	var bind func(*mpi.World)
	if overTCP {
		ttr, err := tcp.New(rt.ranks)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ttr.Close)
		ttr.SetMetrics(reg)
		inner, bind = ttr, ttr.Bind
	} else {
		str := shm.New()
		str.SetMetrics(reg)
		inner, bind = str, str.Bind
	}
	ft := faulty.New(inner)
	ft.SetMetrics(reg)
	w := mpi.NewWorld(rt.ranks, ft, rt.eager)
	w.SetMetrics(reg)
	bind(w)
	if mode == faulty.Reorder {
		// One held message, released by the traffic behind it. An unlimited
		// reorder budget could hold the final message of the cell forever,
		// which is loss, not reordering.
		ft.SetFaultN(mode, 1, nil)
	} else {
		ft.SetFault(mode, nil)
	}

	c := &cell{ft: ft}
	var group sched.Group
	var wg sync.WaitGroup
	for rank := 0; rank < rt.ranks; rank++ {
		comm := w.AttachRank(rank, group.Proc())
		wg.Add(1)
		go func(comm *mpi.Comm) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					c.reportPanic(fmt.Sprintf("rank%d", comm.Rank()), r)
				}
			}()
			rt.body(c, encmpi.Wrap(comm, eng.mk(t, comm.Rank(), rt.ranks), rt.wrap...))
		}(comm)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("cell hung (possible lost message under fault injection)")
	}

	if ft.InjectedTotal() == 0 && mode != faulty.Replay {
		t.Fatalf("fault %v was never injected", mode)
	}

	// A context-free engine cannot tell a replayed genuine ciphertext from
	// fresh traffic; the session engine can, at every receiver. (A fan-out
	// record replayed to a receiver that has not seen it yet is the genuine
	// bytes for that receiver too, and opens correctly.)
	strict := eng.auth && (mode != faulty.Replay || eng.guarded)
	replayed := eng.guarded && (mode == faulty.Replay || mode == faulty.DuplicateDelivery)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, o := range c.outs {
		if o.hard {
			t.Errorf("%s: %v", o.desc, o.err)
			continue
		}
		if replayed && o.err != nil && !errors.Is(o.err, aead.ErrAuth) && !errors.Is(o.err, mpi.ErrTransport) {
			// session.ErrReplay and context mismatches both wrap ErrAuth; the
			// rendezvous protocol may refuse a duplicated frame before the
			// cipher ever sees it.
			t.Errorf("%s: replayed record rejected as %v, want an aead.ErrAuth-family error", o.desc, o.err)
		}
		if !strict {
			continue
		}
		if o.err == nil && !bytes.Equal(o.got, o.want) {
			t.Errorf("%s: silently wrong bytes (got %d, want %d) under %v", o.desc, len(o.got), len(o.want), mode)
		}
	}

	// Attribution must stay exact no matter how frames were batched on the
	// wire: an auth failure is charged to the rank whose Open rejected the
	// bytes. In the point-to-point routine only rank 1 ever opens anything,
	// so any failure on another scope is misattribution; in every routine
	// the world total must be exactly the per-rank sum.
	snap := reg.Snapshot()
	var perRank uint64
	for i, r := range snap.Ranks {
		perRank += r.Crypto.AuthFailures
		if rt.name == "send-recv" && i != 1 && r.Crypto.AuthFailures != 0 {
			t.Errorf("rank %d charged %d auth failures; only rank 1 receives", i, r.Crypto.AuthFailures)
		}
	}
	if perRank != snap.Total.Crypto.AuthFailures {
		t.Errorf("auth-failure total %d != per-rank sum %d", snap.Total.Crypto.AuthFailures, perRank)
	}
}
