package mpi_test

import (
	"bytes"
	"fmt"
	"testing"

	"encmpi/internal/cluster"
	"encmpi/internal/job"
	"encmpi/internal/mpi"
	"encmpi/internal/simnet"
)

// runBoth runs a body over both the shm transport (real concurrency) and the
// simulated fabric (virtual time), since the MPI core must behave identically.
func runBoth(t *testing.T, n int, body job.Body) {
	t.Helper()
	t.Run("shm", func(t *testing.T) {
		if err := job.RunShm(n, body); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("sim", func(t *testing.T) {
		spec := cluster.Spec{Name: "test", Nodes: 2, CoresPerNode: 32, Ranks: n, Place: cluster.Block}
		if n < 2 {
			spec.Nodes = 1
		}
		if _, err := job.RunSim(spec, simnet.Eth10G(), body); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSendRecvEager(t *testing.T) {
	runBoth(t, 2, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, mpi.Bytes([]byte("hello")))
		case 1:
			buf, st := c.Recv(0, 7)
			if string(buf.Data) != "hello" {
				t.Errorf("got %q", buf.Data)
			}
			if st.Source != 0 || st.Tag != 7 || st.Len != 5 {
				t.Errorf("status %+v", st)
			}
		}
	})
}

// TestRendezvousSenderReuse pins the MPI reuse guarantee on the in-process
// transports: once a blocking send returns, the caller may overwrite its
// buffer without corrupting what the receiver sees. The rendezvous DATA
// frame travels zero-copy over shm, so the protocol must hand the receiver
// a private copy of a borrowed payload — recursive-doubling collectives,
// which mutate their accumulator right after each Sendrecv, broke without
// it (large plaintext Allreduce returned other ranks' partial sums).
func TestRendezvousSenderReuse(t *testing.T) {
	const n = 128 << 10 // past every eager threshold
	runBoth(t, 2, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			mine := bytes.Repeat([]byte{0x5A}, n)
			if err := c.Send(1, 3, mpi.Bytes(mine)); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			// MPI says the buffer is ours again; scribble over it.
			for i := range mine {
				mine[i] = 0xFF
			}
		case 1:
			buf, _ := c.Recv(0, 3)
			for i, b := range buf.Data {
				if b != 0x5A {
					t.Errorf("byte %d = %#x, want 0x5a (receiver aliases sender storage)", i, b)
					return
				}
			}
			buf.Release()
		}
	})
}

// TestAllreduceLargePlain is the collective face of the same guarantee: a
// plaintext Allreduce big enough that every exchange takes the rendezvous
// path must still produce exact sums on all ranks.
func TestAllreduceLargePlain(t *testing.T) {
	const p, n = 4, 48 << 10
	runBoth(t, p, func(c *mpi.Comm) {
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(c.Rank() + i%5)
		}
		res := c.Allreduce(mpi.Int32Buffer(vals), mpi.Int32, mpi.OpSum)
		got := mpi.Int32s(res)
		for i := range got {
			want := int32(p*(p-1)/2 + p*(i%5))
			if got[i] != want {
				t.Errorf("rank %d: [%d] = %d, want %d", c.Rank(), i, got[i], want)
				return
			}
		}
		res.Release()
	})
}

func TestSendRecvRendezvous(t *testing.T) {
	// Larger than both transports' eager thresholds.
	payload := bytes.Repeat([]byte{0xAB}, 128<<10)
	runBoth(t, 2, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 1, mpi.Bytes(payload))
		case 1:
			buf, _ := c.Recv(0, 1)
			if !bytes.Equal(buf.Data, payload) {
				t.Error("rendezvous payload corrupted")
			}
		}
	})
}

func TestUnexpectedMessageBuffered(t *testing.T) {
	// Eager sends complete before the receive is posted.
	runBoth(t, 2, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 1, mpi.Bytes([]byte("early")))
			c.Send(1, 2, mpi.Bytes([]byte("later")))
		case 1:
			// Deliberately receive the second tag first.
			b2, _ := c.Recv(0, 2)
			b1, _ := c.Recv(0, 1)
			if string(b2.Data) != "later" || string(b1.Data) != "early" {
				t.Errorf("got %q / %q", b2.Data, b1.Data)
			}
		}
	})
}

func TestNonOvertakingSameTag(t *testing.T) {
	// Messages with identical (src, tag) must be received in send order.
	const k = 20
	runBoth(t, 2, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < k; i++ {
				c.Send(1, 5, mpi.Bytes([]byte{byte(i)}))
			}
		case 1:
			for i := 0; i < k; i++ {
				buf, _ := c.Recv(0, 5)
				if buf.Data[0] != byte(i) {
					t.Fatalf("message %d overtaken by %d", i, buf.Data[0])
				}
			}
		}
	})
}

func TestWildcardSourceAndTag(t *testing.T) {
	runBoth(t, 3, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			c.Send(2, 11, mpi.Bytes([]byte{1}))
		case 1:
			c.Send(2, 22, mpi.Bytes([]byte{2}))
		case 2:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				buf, st := c.Recv(mpi.AnySource, mpi.AnyTag)
				seen[st.Source] = true
				if int(buf.Data[0]) != st.Source+1 {
					t.Errorf("payload %d from source %d", buf.Data[0], st.Source)
				}
				if st.Tag != 11*(st.Source+1) {
					t.Errorf("tag %d from source %d", st.Tag, st.Source)
				}
			}
			if !seen[0] || !seen[1] {
				t.Errorf("sources seen: %v", seen)
			}
		}
	})
}

func TestIsendIrecvWaitall(t *testing.T) {
	runBoth(t, 2, func(c *mpi.Comm) {
		const k = 8
		switch c.Rank() {
		case 0:
			reqs := make([]*mpi.Request, k)
			for i := 0; i < k; i++ {
				reqs[i] = c.Isend(1, i, mpi.Bytes([]byte{byte(i * 3)}))
			}
			c.Waitall(reqs)
		case 1:
			reqs := make([]*mpi.Request, k)
			for i := 0; i < k; i++ {
				reqs[i] = c.Irecv(0, i)
			}
			c.Waitall(reqs)
			for i, r := range reqs {
				if r.BufferOf().Data[0] != byte(i*3) {
					t.Errorf("req %d got %v", i, r.BufferOf().Data)
				}
			}
		}
	})
}

func TestOnCompleteRunsInWait(t *testing.T) {
	runBoth(t, 2, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 0, mpi.Bytes([]byte("ciphertext")))
		case 1:
			ran := 0
			req := irecvHook(c, 0, 0, &funcHook{complete: func(buf mpi.Buffer, st mpi.Status, err error) (mpi.Buffer, error) {
				ran++
				if string(buf.Data) != "ciphertext" || st.Source != 0 || err != nil {
					t.Errorf("hook saw %q from %d, err %v", buf.Data, st.Source, err)
				}
				buf.Release()
				return mpi.Bytes([]byte("plaintext")), nil
			}})
			buf, st := c.Wait(req)
			if string(buf.Data) != "plaintext" {
				t.Errorf("hook did not substitute buffer: %q", buf.Data)
			}
			if st.Len != len("plaintext") {
				t.Errorf("status len %d", st.Len)
			}
			// Waiting again must not re-run the hook.
			buf2, _ := c.Wait(req)
			if ran != 1 || string(buf2.Data) != "plaintext" {
				t.Errorf("hook ran %d times", ran)
			}
		}
	})
}

func TestSendrecvExchange(t *testing.T) {
	runBoth(t, 2, func(c *mpi.Comm) {
		peer := 1 - c.Rank()
		mine := []byte(fmt.Sprintf("from-%d", c.Rank()))
		got, _ := c.Sendrecv(peer, 9, mpi.Bytes(mine), peer, 9)
		want := fmt.Sprintf("from-%d", peer)
		if string(got.Data) != want {
			t.Errorf("rank %d got %q, want %q", c.Rank(), got.Data, want)
		}
	})
}

func TestSendrecvLargeBothWays(t *testing.T) {
	// Rendezvous exchanges in both directions simultaneously must not
	// deadlock (the reason Sendrecv exists).
	big := bytes.Repeat([]byte{7}, 100<<10)
	runBoth(t, 2, func(c *mpi.Comm) {
		peer := 1 - c.Rank()
		got, _ := c.Sendrecv(peer, 3, mpi.Bytes(big), peer, 3)
		if got.Len() != len(big) {
			t.Errorf("got %d bytes", got.Len())
		}
	})
}

func TestSelfSend(t *testing.T) {
	runBoth(t, 1, func(c *mpi.Comm) {
		req := c.Irecv(0, 4)
		c.Send(0, 4, mpi.Bytes([]byte("me")))
		buf, _ := c.Wait(req)
		if string(buf.Data) != "me" {
			t.Errorf("self-send got %q", buf.Data)
		}
	})
}

func TestBcast(t *testing.T) {
	for _, size := range []int{1, 1 << 10, 200 << 10} {
		size := size
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			runBoth(t, 6, func(c *mpi.Comm) {
				const root = 2
				var buf mpi.Buffer
				if c.Rank() == root {
					data := bytes.Repeat([]byte{0x5A}, size)
					buf = mpi.Bytes(data)
				}
				got := c.Bcast(root, buf)
				if got.Len() != size {
					t.Errorf("rank %d: len %d", c.Rank(), got.Len())
				}
				if got.Data[0] != 0x5A || got.Data[size-1] != 0x5A {
					t.Errorf("rank %d: corrupted bcast", c.Rank())
				}
			})
		})
	}
}

func TestAllgather(t *testing.T) {
	runBoth(t, 5, func(c *mpi.Comm) {
		mine := mpi.Bytes([]byte{byte(c.Rank() * 10)})
		all := c.Allgather(mine)
		if len(all) != c.Size() {
			t.Fatalf("got %d blocks", len(all))
		}
		for r, b := range all {
			if b.Data[0] != byte(r*10) {
				t.Errorf("rank %d: block %d = %d", c.Rank(), r, b.Data[0])
			}
		}
	})
}

func TestAlltoall(t *testing.T) {
	runBoth(t, 4, func(c *mpi.Comm) {
		blocks := make([]mpi.Buffer, c.Size())
		for d := range blocks {
			blocks[d] = mpi.Bytes([]byte{byte(c.Rank()), byte(d)})
		}
		res := c.Alltoall(blocks)
		for s, b := range res {
			if int(b.Data[0]) != s || int(b.Data[1]) != c.Rank() {
				t.Errorf("rank %d: block from %d = %v", c.Rank(), s, b.Data)
			}
		}
	})
}

func TestAlltoallvRagged(t *testing.T) {
	runBoth(t, 4, func(c *mpi.Comm) {
		blocks := make([]mpi.Buffer, c.Size())
		for d := range blocks {
			// Rank r sends d+r bytes to rank d (zero allowed).
			n := c.Rank() + d
			blocks[d] = mpi.Bytes(bytes.Repeat([]byte{byte(c.Rank())}, n))
		}
		res := c.Alltoallv(blocks)
		for s, b := range res {
			want := s + c.Rank()
			if b.Len() != want {
				t.Errorf("rank %d: from %d got %d bytes, want %d", c.Rank(), s, b.Len(), want)
			}
		}
	})
}

func TestReduceAndAllreduce(t *testing.T) {
	runBoth(t, 4, func(c *mpi.Comm) {
		v := []float64{float64(c.Rank() + 1), 2}
		sum := c.Allreduce(mpi.Float64Buffer(v), mpi.Float64, mpi.OpSum)
		got := mpi.Float64s(sum)
		if got[0] != 1+2+3+4 || got[1] != 8 {
			t.Errorf("rank %d allreduce sum = %v", c.Rank(), got)
		}

		mx := c.Reduce(0, mpi.Float64Buffer(v), mpi.Float64, mpi.OpMax)
		if c.Rank() == 0 {
			gm := mpi.Float64s(mx)
			if gm[0] != 4 {
				t.Errorf("reduce max = %v", gm)
			}
		}

		mn := c.Allreduce(mpi.Float64Buffer(v), mpi.Float64, mpi.OpMin)
		if g := mpi.Float64s(mn); g[0] != 1 {
			t.Errorf("allreduce min = %v", g)
		}
	})
}

func TestAllreduceNonPowerOfTwo(t *testing.T) {
	runBoth(t, 5, func(c *mpi.Comm) {
		v := []float64{1}
		sum := c.Allreduce(mpi.Float64Buffer(v), mpi.Float64, mpi.OpSum)
		if g := mpi.Float64s(sum); g[0] != 5 {
			t.Errorf("rank %d: sum = %v", c.Rank(), g)
		}
	})
}

func TestAllreduceInt64(t *testing.T) {
	runBoth(t, 4, func(c *mpi.Comm) {
		buf := mpi.Bytes(make([]byte, 8))
		buf.Data[0] = byte(c.Rank())
		got := c.Allreduce(buf, mpi.Int64, mpi.OpMax)
		if got.Data[0] != 3 {
			t.Errorf("int64 max = %d", got.Data[0])
		}
	})
}

func TestBarrierSequencing(t *testing.T) {
	// After a barrier, all pre-barrier sends must be observable.
	runBoth(t, 4, func(c *mpi.Comm) {
		if c.Rank() != 0 {
			c.Send(0, 1, mpi.Bytes([]byte{byte(c.Rank())}))
		}
		reqs := []*mpi.Request{}
		if c.Rank() == 0 {
			for i := 1; i < c.Size(); i++ {
				reqs = append(reqs, c.Irecv(mpi.AnySource, 1))
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			c.Waitall(reqs)
		}
		c.Barrier()
	})
}

func TestGatherScatter(t *testing.T) {
	runBoth(t, 5, func(c *mpi.Comm) {
		const root = 1
		got := c.Gather(root, mpi.Bytes([]byte{byte(c.Rank() + 100)}))
		if c.Rank() == root {
			for r, b := range got {
				if b.Data[0] != byte(r+100) {
					t.Errorf("gather block %d = %v", r, b.Data)
				}
			}
		}

		var blocks []mpi.Buffer
		if c.Rank() == root {
			blocks = make([]mpi.Buffer, c.Size())
			for r := range blocks {
				blocks[r] = mpi.Bytes([]byte{byte(r * 2)})
			}
		}
		mine := c.Scatter(root, blocks)
		if mine.Data[0] != byte(c.Rank()*2) {
			t.Errorf("scatter got %v", mine.Data)
		}
	})
}

func TestCollectivesBackToBack(t *testing.T) {
	// Consecutive collectives must not cross-match.
	runBoth(t, 4, func(c *mpi.Comm) {
		for i := 0; i < 10; i++ {
			buf := c.Bcast(i%4, mpi.Bytes([]byte{byte(i)}))
			if buf.Data[0] != byte(i) {
				t.Fatalf("iteration %d corrupted: %v", i, buf.Data)
			}
			c.Barrier()
		}
	})
}

func TestSyntheticBuffers(t *testing.T) {
	// The simulator path must carry sizes faithfully without data.
	spec := cluster.PaperTestbed(8, 4)
	_, err := job.RunSim(spec, simnet.IB40G(), func(c *mpi.Comm) {
		blocks := make([]mpi.Buffer, c.Size())
		for d := range blocks {
			blocks[d] = mpi.Synthetic(1000 + d)
		}
		res := c.Alltoall(blocks)
		for s, b := range res {
			if b.Len() != 1000+c.Rank() {
				t.Errorf("rank %d from %d: %d bytes", c.Rank(), s, b.Len())
			}
			_ = s
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() (uint64, int64) {
		spec := cluster.PaperTestbed(16, 4)
		res, err := job.RunSim(spec, simnet.Eth10G(), func(c *mpi.Comm) {
			for i := 0; i < 5; i++ {
				c.Alltoall(syntheticBlocks(c.Size(), 4096))
				c.Allreduce(mpi.Synthetic(800), mpi.Float64, mpi.OpSum)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Events, res.Bytes
	}
	e1, b1 := run()
	e2, b2 := run()
	if e1 != e2 || b1 != b2 {
		t.Errorf("non-deterministic simulation: (%d,%d) vs (%d,%d)", e1, b1, e2, b2)
	}
}

func syntheticBlocks(n, size int) []mpi.Buffer {
	blocks := make([]mpi.Buffer, n)
	for i := range blocks {
		blocks[i] = mpi.Synthetic(size)
	}
	return blocks
}

func TestBufferHelpers(t *testing.T) {
	b := mpi.Bytes([]byte{1, 2, 3, 4})
	if b.Len() != 4 || b.IsSynthetic() {
		t.Error("Bytes broken")
	}
	s := b.Slice(1, 3)
	if s.Len() != 2 || s.Data[0] != 2 {
		t.Error("Slice broken")
	}
	syn := mpi.Synthetic(100)
	if !syn.IsSynthetic() || syn.Len() != 100 {
		t.Error("Synthetic broken")
	}
	if syn.Slice(10, 60).Len() != 50 {
		t.Error("synthetic slice broken")
	}
	c := b.Clone()
	c.Data[0] = 9
	if b.Data[0] == 9 {
		t.Error("Clone did not copy")
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	v := []float64{1.5, -2.25, 3e100, 0}
	got := mpi.Float64s(mpi.Float64Buffer(v))
	for i := range v {
		if got[i] != v[i] {
			t.Errorf("roundtrip[%d] = %v", i, got[i])
		}
	}
}

// TestAlltoallBruckMatchesPairwise checks the small-message Bruck path gives
// the same results as the pairwise path, across pow2 and non-pow2 sizes.
func TestAlltoallBruckMatchesPairwise(t *testing.T) {
	for _, n := range []int{3, 4, 6, 8} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			runBoth(t, n, func(c *mpi.Comm) {
				// Small uniform blocks trigger Bruck.
				blocks := make([]mpi.Buffer, c.Size())
				for d := range blocks {
					blocks[d] = mpi.Bytes([]byte{byte(c.Rank()), byte(d), byte(c.Rank() * d)})
				}
				res := c.Alltoall(blocks)
				for s, b := range res {
					want := []byte{byte(s), byte(c.Rank()), byte(s * c.Rank())}
					if !bytes.Equal(b.Data, want) {
						t.Errorf("rank %d from %d: %v want %v", c.Rank(), s, b.Data, want)
					}
				}
			})
		})
	}
}

// TestProbeAndIprobe exercises the probe API over both transports.
func TestProbeAndIprobe(t *testing.T) {
	runBoth(t, 2, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 5, mpi.Bytes([]byte("probe me")))
			// Large (rendezvous) message: probe must report the announced
			// length before any data moves.
			c.Send(1, 6, mpi.Bytes(bytes.Repeat([]byte{1}, 100<<10)))
		case 1:
			st := c.Probe(0, 5)
			if st.Len != len("probe me") || st.Tag != 5 {
				t.Errorf("probe status %+v", st)
			}
			// Probing does not consume.
			if ok, _ := c.Iprobe(0, 5); !ok {
				t.Error("message consumed by Probe")
			}
			buf, _ := c.Recv(0, 5)
			if string(buf.Data) != "probe me" {
				t.Errorf("recv after probe: %q", buf.Data)
			}
			if ok, _ := c.Iprobe(0, 5); ok {
				t.Error("message still probed after Recv")
			}

			st = c.Probe(mpi.AnySource, mpi.AnyTag)
			if st.Tag != 6 || st.Len != 100<<10 {
				t.Errorf("rendezvous probe status %+v", st)
			}
			buf, _ = c.Recv(0, 6)
			if buf.Len() != 100<<10 {
				t.Errorf("rendezvous after probe: %d", buf.Len())
			}
		}
	})
}

// TestIprobeEmpty returns false with no traffic.
func TestIprobeEmpty(t *testing.T) {
	runBoth(t, 2, func(c *mpi.Comm) {
		if ok, _ := c.Iprobe(mpi.AnySource, mpi.AnyTag); ok {
			t.Error("phantom message")
		}
		c.Barrier()
	})
}

// TestRandomTrafficStorm generates a deterministic pseudo-random traffic
// pattern (every rank sends a known set of messages to known peers in a
// random-looking order) and verifies every byte arrives exactly once, over
// both transports. This is the robustness sweep for the matching engine.
func TestRandomTrafficStorm(t *testing.T) {
	const n = 5
	const perPair = 30
	runBoth(t, n, func(c *mpi.Comm) {
		// LCG per rank: deterministic but scrambled ordering.
		state := uint64(c.Rank())*2654435761 + 97
		next := func(mod int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int(state>>33) % mod
		}

		// Post all receives first (wildcards), then fire sends in a
		// scrambled order with scrambled sizes.
		var reqs []*mpi.Request
		for i := 0; i < (n-1)*perPair; i++ {
			reqs = append(reqs, c.Irecv(mpi.AnySource, mpi.AnyTag))
		}

		type msg struct{ dst, tag, size int }
		var plan []msg
		for d := 0; d < n; d++ {
			if d == c.Rank() {
				continue
			}
			for k := 0; k < perPair; k++ {
				plan = append(plan, msg{dst: d, tag: k, size: 1 + next(2000)})
			}
		}
		// Shuffle deterministically.
		for i := len(plan) - 1; i > 0; i-- {
			j := next(i + 1)
			plan[i], plan[j] = plan[j], plan[i]
		}
		for _, m := range plan {
			payload := bytes.Repeat([]byte{byte(c.Rank()*16 + m.tag&0xf)}, m.size)
			c.Send(m.dst, m.tag, mpi.Bytes(payload))
		}

		c.Waitall(reqs)
		// Verify counts per source and content tags.
		perSrc := map[int]int{}
		for _, r := range reqs {
			st := r.StatusOf()
			perSrc[st.Source]++
			buf := r.BufferOf()
			if buf.Len() == 0 || buf.Data[0] != byte(st.Source*16+st.Tag&0xf) {
				t.Errorf("rank %d: bad payload from %d tag %d", c.Rank(), st.Source, st.Tag)
			}
		}
		for s, cnt := range perSrc {
			if cnt != perPair {
				t.Errorf("rank %d: got %d messages from %d, want %d", c.Rank(), cnt, s, perPair)
			}
		}
	})
}
