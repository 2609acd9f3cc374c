package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"encmpi"
)

// pairRun drives one wall-clock workload: two rank goroutines in this
// process over RunShm or RunTCP, rank 0 the closed-loop client that times
// each op, rank 1 its peer. Sessions are NewSession(key) -> Attach(c) with no
// option set, and the unencrypted baseline is EncryptWith(c, Unencrypted())
// so that it crosses the same wrapper.
type pairRun struct {
	w  workload
	in *inputs

	// What rank 1 verified in the half just finished; rank 0 reads it after
	// the closing barrier.
	peerGood, peerFailed atomic.Int64
	// arrive/release let rank 0 read counters with both ranks quiescent.
	arrive, release chan struct{}
}

func newPairRun(w workload, in *inputs) *pairRun {
	return &pairRun{w: w, in: in, arrive: make(chan struct{}), release: make(chan struct{})}
}

func (p *pairRun) launch(body func(c *encmpi.Comm), opts ...encmpi.Option) error {
	if p.w.Transport == "tcp" {
		return encmpi.RunTCP(2, body, opts...)
	}
	return encmpi.RunShm(2, body, opts...)
}

// meet runs fn on rank 0 while rank 1 waits, outside any MPI call.
func (p *pairRun) meet(rank int, fn func()) {
	if rank == 1 {
		p.arrive <- struct{}{}
		<-p.release
		return
	}
	<-p.arrive
	fn()
	p.release <- struct{}{}
}

// jobPlan is what one job does once its transport is up.
type jobPlan struct {
	warm     int // warm-up ops on each communicator, fully verified
	segments int
	ops      int  // ops per half segment
	full     bool // timed ops compare the whole payload, not a 64-byte sample
	traced   bool // registry, spans and allocator deltas on the encrypted halves
	p1       bool // one more encrypted half at GOMAXPROCS 1
}

type jobOut struct {
	setup time.Duration // launcher call -> barrier that opens the first segment
	segs  []segment
	// warmOps and warmFailed account for the fully verified warm-up.
	warmOps, warmFailed int64
	p1                  halfStats
	tracers             []*tracer
	// delta sums the counters over the encrypted halves; encWall and encOps
	// are those halves' elapsed time and op count.
	delta   counters
	encWall time.Duration
	encOps  int
}

// pairRank is one rank's state inside a job.
type pairRank struct {
	p          *pairRun
	c          *encmpi.Comm
	rank, peer int
	tr         *tracer
	sreqs      []*encmpi.EncryptedRequest
}

// op runs op i against e and returns the plaintext bytes this rank received
// and verified, or -1 if the op failed: any returned error, wrong length, or
// payload mismatch.
func (r *pairRank) op(e *encmpi.EncryptedComm, i int, full bool) int {
	if r.p.w.Window == 1 {
		return r.pingPong(e, i, full)
	}
	return r.window(e, i, full)
}

func (r *pairRank) pingPong(e *encmpi.EncryptedComm, i int, full bool) int {
	in := r.p.in
	mine, theirs := in.pay[r.rank], in.pay[r.peer]
	t0 := r.tr.now()
	var sendErr error
	if r.rank == 0 {
		sendErr = e.Send(r.peer, 0, encmpi.Bytes(mine))
	}
	t1 := r.tr.now()
	buf, _, err := e.Recv(r.peer, 0)
	t2 := r.tr.now()
	ok := err == nil && in.verify(buf, theirs, i, full)
	buf.Release()
	if r.rank == 1 {
		sendErr = e.Send(r.peer, 0, encmpi.Bytes(mine))
	}
	t3 := r.tr.now()
	if r.tr != nil {
		id := r.tr.record(i, spanOp, -1, t0, t3)
		if r.rank == 0 {
			r.tr.record(i, spanSend, id, t0, t1)
			r.tr.record(i, spanRecv, id, t1, t2)
		} else {
			r.tr.record(i, spanRecv, id, t1, t2)
			r.tr.record(i, spanSend, id, t2, t3)
		}
	}
	if !ok || sendErr != nil {
		return -1
	}
	return len(theirs)
}

// window is the OSU-bw shape: rank 0 posts Window Isends then Waitall, rank 1
// posts Window Irecvs, Waits and verifies each, then a 1-byte ack returns.
func (r *pairRank) window(e *encmpi.EncryptedComm, i int, full bool) int {
	in, w := r.p.in, r.p.w
	data, ack := in.pay[0], in.pay[1]
	t0 := r.tr.now()
	ok, good := true, 0
	var t1 int64
	if r.rank == 0 {
		for k := range r.sreqs {
			r.sreqs[k] = e.Isend(1, 0, encmpi.Bytes(data[k*w.Size:(k+1)*w.Size]))
		}
		ok = e.Waitall(r.sreqs) == nil
		t1 = r.tr.now()
		buf, _, err := e.Recv(1, 0)
		ok = ok && err == nil && in.verify(buf, ack, i, full)
		buf.Release()
	} else {
		for k := range r.sreqs {
			r.sreqs[k] = e.Irecv(0, 0)
		}
		for k, req := range r.sreqs {
			want := data[k*w.Size : (k+1)*w.Size]
			buf, _, err := e.Wait(req)
			if err == nil && in.verify(buf, want, i+k, full) {
				good += len(want)
			} else {
				ok = false
			}
			buf.Release()
		}
		t1 = r.tr.now()
		ok = e.Send(0, 0, encmpi.Bytes(ack)) == nil && ok
	}
	t2 := r.tr.now()
	if r.tr != nil {
		id := r.tr.record(i, spanOp, -1, t0, t2)
		if r.rank == 0 {
			r.tr.record(i, spanSend, id, t0, t1)
			r.tr.record(i, spanRecv, id, t1, t2)
		} else {
			r.tr.record(i, spanRecv, id, t0, t1)
			r.tr.record(i, spanSend, id, t1, t2)
		}
	}
	if !ok {
		return -1
	}
	return good
}

// half runs n ops against e between two barriers. On rank 0 samples, when
// non-nil, receives each op's interval in ns, and the returned good and
// failed totals cover both ranks.
func (r *pairRank) half(e *encmpi.EncryptedComm, n int, full bool, samples []int64) (elapsed time.Duration, good, failed int64) {
	r.c.Barrier()
	start := time.Now()
	var prev time.Duration
	for i := 0; i < n; i++ {
		if g := r.op(e, i, full); g < 0 {
			failed++
		} else {
			good += int64(g)
		}
		if samples != nil {
			now := time.Since(start)
			samples[i] = int64(now - prev)
			prev = now
		}
	}
	elapsed = time.Since(start)
	if r.rank == 1 {
		r.p.peerGood.Store(good)
		r.p.peerFailed.Store(failed)
	}
	r.c.Barrier()
	if r.rank == 0 {
		good += r.p.peerGood.Load()
		failed += r.p.peerFailed.Load()
	}
	return elapsed, good, failed
}

// job runs one fresh 2-rank job: launcher -> session attach -> fixed warm-up
// -> barrier (that is set-up), then plan.segments timed segments.
func (p *pairRun) job(plan jobPlan) (jobOut, error) {
	var out jobOut
	var reg *encmpi.Registry
	var opts []encmpi.Option
	if plan.traced {
		reg = encmpi.NewRegistry(2)
		opts = append(opts, encmpi.WithMetrics(reg))
		base := time.Now()
		out.tracers = []*tracer{newTracer(0, pairTracerCap, base), newTracer(1, pairTracerCap, base)}
	}
	launched := time.Now()
	err := p.launch(func(c *encmpi.Comm) {
		sess, err := encmpi.NewSession(p.in.key)
		if err != nil {
			panic(err)
		}
		enc, err := sess.Attach(c)
		if err != nil {
			panic(err)
		}
		plain := encmpi.EncryptWith(c, encmpi.Unencrypted())
		r := &pairRank{p: p, c: c, rank: c.Rank(), peer: 1 - c.Rank()}
		if p.w.Window > 1 {
			r.sreqs = make([]*encmpi.EncryptedRequest, p.w.Window)
		}
		_, _, wf1 := r.half(enc, plan.warm, true, nil)
		_, _, wf2 := r.half(plain, plan.warm, true, nil)
		if r.rank == 0 {
			out.setup = time.Since(launched)
			out.warmOps, out.warmFailed = int64(2*plan.warm), min(wf1+wf2, int64(2*plan.warm))
		}
		var samples []int64 // the benchmark's own bookkeeping stays out of set-up
		if r.rank == 0 {
			samples = make([]int64, plan.ops)
		}
		timedHalf := func(e *encmpi.EncryptedComm) (halfStats, time.Duration) {
			elapsed, good, failed := r.half(e, plan.ops, plan.full, samples)
			if r.rank != 0 {
				return halfStats{}, 0
			}
			return p.w.reduceHalf(samples, elapsed, good, failed), elapsed
		}
		for s := 0; s < plan.segments; s++ {
			var before counters
			if plan.traced {
				r.tr = out.tracers[r.rank]
				p.meet(r.rank, func() { before = readCounters(reg, true) })
			}
			encHalf, elapsed := timedHalf(enc)
			if plan.traced {
				r.tr = nil
				p.meet(r.rank, func() {
					out.delta.add(before, readCounters(reg, true))
					out.encWall += elapsed
					out.encOps += plan.ops
				})
			}
			plainHalf, _ := timedHalf(plain)
			if r.rank == 0 {
				out.segs = append(out.segs, segment{Enc: encHalf, Plain: plainHalf})
			}
		}
		if plan.p1 {
			var procs int
			p.meet(r.rank, func() { procs = runtime.GOMAXPROCS(1) })
			h, _ := timedHalf(enc)
			p.meet(r.rank, func() { runtime.GOMAXPROCS(procs) })
			if r.rank == 0 {
				out.p1 = h
			}
		}
	}, opts...)
	return out, err
}

// totals reduces a job to what the end-to-end pass keeps of it.
func (o jobOut) totals() jobTotals {
	t := jobTotals{setup: o.setup, segs: o.segs, attempted: o.warmOps, failed: o.warmFailed}
	for _, s := range o.segs {
		t.count(s.Enc)
		t.count(s.Plain)
	}
	t.count(o.p1)
	return t
}

func (p *pairRun) untraced(cfg runConfig) (passResult, error) {
	ops := p.w.ops(cfg.seconds)
	return untracedPass(func(segments int) (jobTotals, error) {
		out, err := p.job(jobPlan{warm: max(1, ops/10), ops: ops, segments: segments})
		return out.totals(), err
	})
}
