package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"encmpi"
)

// coll_sim_64r: the paper's collective experiment on the discrete-event
// simulator. One op is one step — Bcast 256 KiB from rank 0, Allgather
// 16 KiB, Alltoall 16 KiB per block — through the default public entry points
// only, on synthetic (length-only) buffers under the boringssl/gcc485/256
// library model. No real crypto kernel, session or socket runs.
//
// The end-to-end metrics are what a user of the simulator pays: wall time per
// simulated step. The virtual times the simulator predicts are deterministic
// — bit-identical across runs and seeds — so they are per-layer metrics
// (unit "vus"), which move only when the algorithm or the cost model moves.

const (
	simRanks, simNodes = 64, 8
	simBcastBytes      = 256 << 10
	simBlockBytes      = 16 << 10
	simTracerCap       = 1 << 10
)

// simMode selects the communicator a half runs on.
type simMode int

const (
	simEnc   simMode = iota // EncryptWith(c, LibraryModel(...))
	simPlain                // EncryptWith(c, Unencrypted())
	simMPI                  // the plaintext Comm with wire-size buffers
)

type simRun struct {
	w workload
}

// simPlan is what one simulated job does once its engines are built.
type simPlan struct {
	warm     int // checked warm-up steps per mode
	segments int
	ops      int       // steps per half segment
	modes    []simMode // the halves of one segment, in order
	traced   bool      // per-rank spans, in virtual time, on the encrypted halves
	p1       bool      // one more encrypted half at GOMAXPROCS 1
	reg      *encmpi.Registry
}

// simHalf is one half segment of the schedule every rank walks in lock-step.
// Ranks write only their own slots; the simulator runs one rank at a time.
type simHalf struct {
	mode      simMode
	timed, p1 bool
	good      [simRanks]int64 // plaintext bytes each rank received
	failed    []bool          // per step, set by any rank that saw it fail
	entry     [][simRanks]time.Duration
	exit      [][simRanks]time.Duration
	samples   []int64 // rank 0's wall interval per step, ns
	elapsed   time.Duration
}

func newSimHalf(mode simMode, n int, timed bool) *simHalf {
	return &simHalf{
		mode: mode, timed: timed, failed: make([]bool, n), samples: make([]int64, n),
		entry: make([][simRanks]time.Duration, n), exit: make([][simRanks]time.Duration, n),
	}
}

// stats reduces the half to rank 0's wall-clock view of it.
func (h *simHalf) stats(w workload) halfStats {
	var good, failed int64
	for _, g := range h.good {
		good += g
	}
	for _, f := range h.failed {
		if f {
			failed++
		}
	}
	return w.reduceHalf(slices.Clone(h.samples), h.elapsed, good, failed)
}

// virtualUs returns each step's virtual time, first entry to last exit, and
// the mean plaintext bytes a step delivered.
func virtualUs(halves []*simHalf, mode simMode) (us []float64, bytesPerStep float64) {
	var good int64
	for _, h := range halves {
		if h.mode != mode || !h.timed {
			continue
		}
		for i := range h.entry {
			us = append(us, float64(slices.Max(h.exit[i][:])-slices.Min(h.entry[i][:]))/1e3)
		}
		for _, g := range h.good {
			good += g
		}
	}
	return us, ratio(float64(good), float64(len(us)))
}

type simOut struct {
	setup   time.Duration
	halves  []*simHalf
	tracers []*tracer
	res     encmpi.SimResult
	wall    time.Duration // the whole RunSim call
}

// segments pairs the timed encrypted and plain halves in order.
func (o *simOut) segments(w workload) []segment {
	var segs []segment
	for i, h := range o.halves {
		if h.timed && !h.p1 && h.mode == simEnc && i+1 < len(o.halves) && o.halves[i+1].mode == simPlain {
			segs = append(segs, segment{Enc: h.stats(w), Plain: o.halves[i+1].stats(w)})
		}
	}
	return segs
}

// simRank is one rank's state inside a simulated job.
type simRank struct {
	c          *encmpi.Comm
	enc, plain *encmpi.EncryptedComm
	tr         *tracer
	send       []encmpi.Buffer
}

// step runs one step and returns the plaintext bytes this rank received, or
// -1 if anything returned an error or a wrong length.
func (r *simRank) step(mode simMode, op int) int64 {
	c, rank := r.c, r.c.Rank()
	now := func() int64 { return int64(c.Proc().Now()) }
	e := r.enc
	if mode == simPlain {
		e = r.plain
	}
	bcastLen, blockLen := simBcastBytes, simBlockBytes
	if mode == simMPI {
		bcastLen, blockLen = encmpi.WireLen(bcastLen), encmpi.WireLen(blockLen)
	}
	var root encmpi.Buffer
	if rank == 0 {
		root = encmpi.Synthetic(bcastLen)
	}
	for i := range r.send {
		r.send[i] = encmpi.Synthetic(blockLen)
	}
	var (
		got           encmpi.Buffer
		gathered, all []encmpi.Buffer
		errs          [3]error
	)
	t0 := now()
	if mode == simMPI {
		got = c.Bcast(0, root)
	} else {
		got, errs[0] = e.Bcast(0, root)
	}
	t1 := now()
	if mode == simMPI {
		gathered = c.Allgather(r.send[0])
	} else {
		gathered, errs[1] = e.Allgather(r.send[0])
	}
	t2 := now()
	if mode == simMPI {
		all = c.Alltoall(r.send)
	} else {
		all, errs[2] = e.Alltoall(r.send)
	}
	t3 := now()
	if r.tr != nil {
		id := r.tr.record(op, spanOp, -1, t0, t3)
		r.tr.record(op, spanBcast, id, t0, t1)
		r.tr.record(op, spanAllgather, id, t1, t2)
		r.tr.record(op, spanAlltoall, id, t2, t3)
	}
	ok := errs == [3]error{} && got.Len() == bcastLen && len(gathered) == c.Size() && len(all) == c.Size()
	var good int64
	if rank != 0 {
		good = int64(bcastLen)
	}
	for _, blocks := range [][]encmpi.Buffer{gathered, all} {
		for _, b := range blocks {
			ok = ok && b.Len() == blockLen
			good += int64(b.Len())
			b.Release()
		}
	}
	got.Release()
	if !ok {
		return -1
	}
	return good
}

// job runs one fresh simulated job: launcher -> engine build -> warm-up ->
// barrier (that is set-up), then plan.segments segments of plan.modes halves.
func (s simRun) job(plan simPlan) (simOut, error) {
	var out simOut
	for _, m := range plan.modes {
		if plan.warm > 0 {
			out.halves = append(out.halves, newSimHalf(m, plan.warm, false))
		}
	}
	warmHalves := len(out.halves)
	for i := 0; i < plan.segments; i++ {
		for _, m := range plan.modes {
			out.halves = append(out.halves, newSimHalf(m, plan.ops, true))
		}
	}
	if plan.p1 {
		h := newSimHalf(simEnc, plan.ops, true)
		h.p1 = true
		out.halves = append(out.halves, h)
	}
	var opts []encmpi.Option
	if plan.reg != nil {
		opts = append(opts, encmpi.WithMetrics(plan.reg))
	}
	if plan.traced {
		for rank := 0; rank < simRanks; rank++ {
			out.tracers = append(out.tracers, newTracer(rank, simTracerCap, time.Time{}))
		}
	}
	launched := time.Now()
	var err error
	out.res, err = encmpi.RunSim(encmpi.PaperTestbed(simRanks, simNodes), encmpi.Eth10G(), func(c *encmpi.Comm) {
		model, err := encmpi.LibraryModel("boringssl", "gcc485", 256)
		if err != nil {
			panic(err)
		}
		r := &simRank{
			c: c, send: make([]encmpi.Buffer, c.Size()),
			enc:   encmpi.EncryptWith(c, model),
			plain: encmpi.EncryptWith(c, encmpi.Unencrypted()),
		}
		rank := c.Rank()
		for hi, h := range out.halves {
			var procs int
			if h.p1 && rank == 0 {
				procs = runtime.GOMAXPROCS(1)
			}
			r.tr = nil
			if plan.traced && h.timed && h.mode == simEnc {
				r.tr = out.tracers[rank]
			}
			// Every step is closed by a barrier, so rank 0's wall clock
			// sees whole steps.
			c.Barrier()
			start := time.Now()
			var prev time.Duration
			for i := range h.failed {
				h.entry[i][rank] = c.Proc().Now()
				g := r.step(h.mode, i)
				h.exit[i][rank] = c.Proc().Now()
				if g < 0 {
					h.failed[i] = true
				} else {
					h.good[rank] += g
				}
				c.Barrier()
				if rank == 0 {
					now := time.Since(start)
					h.samples[i] = int64(now - prev)
					prev = now
				}
			}
			if rank == 0 {
				h.elapsed = time.Since(start)
				if h.p1 {
					runtime.GOMAXPROCS(procs)
				}
				if hi == warmHalves-1 {
					out.setup = time.Since(launched)
				}
			}
		}
	}, opts...)
	out.wall = time.Since(launched)
	return out, err
}

// totals reduces a job to what the end-to-end pass keeps of it.
func (o *simOut) totals(w workload) jobTotals {
	t := jobTotals{setup: o.setup, segs: o.segments(w)}
	for _, h := range o.halves {
		t.count(h.stats(w))
	}
	return t
}

func (s simRun) untraced(cfg runConfig) (passResult, error) {
	return untracedPass(func(segments int) (jobTotals, error) {
		out, err := s.job(simPlan{warm: 1, ops: s.w.ops(cfg.seconds), modes: []simMode{simEnc, simPlain}, segments: segments})
		return out.totals(s.w), err
	})
}

// simSetupUs is launcher call -> first verified byte on rank 1 (transport)
// and LibraryModel + EncryptWith (the model-engine counterpart of
// NewSession+Attach), each the median of 101.
func simSetupUs() (transportUs, engineUs float64, err error) {
	transportUs = timeMedian(101, func() {
		var ok bool
		_, jerr := encmpi.RunSim(encmpi.PaperTestbed(simRanks, simNodes), encmpi.Eth10G(), func(c *encmpi.Comm) {
			switch c.Rank() {
			case 0:
				if serr := c.Send(1, 0, encmpi.Synthetic(1)); serr != nil {
					panic(serr)
				}
			case 1:
				buf, _ := c.Recv(0, 0)
				ok = buf.Len() == 1
			}
		})
		if jerr == nil && !ok {
			jerr = fmt.Errorf("sim set-up: first byte did not verify")
		}
		if jerr != nil && err == nil {
			err = jerr
		}
	}) * 1e6
	_, jerr := encmpi.RunSim(encmpi.PaperTestbed(2, 2), encmpi.Eth10G(), func(c *encmpi.Comm) {
		if c.Rank() != 0 {
			return
		}
		engineUs = timeMedian(101, func() {
			model, merr := encmpi.LibraryModel("boringssl", "gcc485", 256)
			if merr != nil {
				panic(merr)
			}
			encmpi.EncryptWith(c, model)
		}) * 1e6
	})
	if jerr != nil && err == nil {
		err = jerr
	}
	return transportUs, engineUs, err
}

// traced is the per-layer pass of coll_sim_64r.
func (s simRun) traced(cfg runConfig) (passResult, []*tracer, error) {
	var res passResult
	ops := s.w.ops(cfg.seconds)
	both := []simMode{simEnc, simPlain}
	// run is one fresh job and the counters it moved: the allocator's, and
	// the registry's when the plan carries one (a fresh registry starts at 0).
	var err error
	run := func(plan simPlan) (simOut, counters) {
		var moved counters
		before := readCounters(nil, true)
		out, jerr := s.job(plan)
		moved.add(before, readCounters(plan.reg, true))
		if jerr != nil && err == nil {
			err = jerr
		}
		t := out.totals(s.w)
		res.Attempted += t.attempted
		res.Failed += t.failed
		return out, moved
	}
	// ref is the untraced configuration plus the one-core half; trc adds
	// spans; base and cnt are encrypted-only jobs of zero and countSteps steps
	// under a registry, whose difference is exact per-step counts; mpi is the
	// same steps on the plaintext Comm with wire-size buffers.
	ref, refMoved := run(simPlan{warm: 1, segments: tracedSegments, ops: ops, modes: both, p1: true})
	trc, _ := run(simPlan{warm: 1, segments: tracedSegments, ops: ops, modes: both, traced: true})
	base, baseMoved := run(simPlan{modes: []simMode{simEnc}, reg: encmpi.NewRegistry(simRanks)})
	cnt, cntMoved := run(simPlan{modes: []simMode{simEnc}, segments: 1, ops: countSteps, reg: encmpi.NewRegistry(simRanks)})
	mpi, _ := run(simPlan{warm: 1, segments: 1, ops: ops, modes: []simMode{simMPI}})
	if err != nil {
		return res, nil, err
	}
	var d counters
	d.add(baseMoved, cntMoved)
	res.Invariant = d.invariants()

	trSetup, engSetup, err := simSetupUs()
	if err != nil {
		return res, nil, err
	}
	profile, err := encmpi.LookupLibrary("boringssl", encmpi.GCC485, 256)
	if err != nil {
		return res, nil, err
	}

	refSegs := ref.segments(s.w)
	measured := median(column(refSegs, encP50))
	var p1 halfStats
	for _, h := range ref.halves {
		if h.p1 {
			p1 = h.stats(s.w)
		}
	}
	encVirt, stepBytes := virtualUs(ref.halves, simEnc)
	plainVirt, _ := virtualUs(ref.halves, simPlain)
	// A collective's virtual time is its first entry to its last exit over
	// the ranks, per step; the tracers hold the same steps in the same order.
	collUs := func(name spanName) float64 {
		var lo, hi []int64
		for _, t := range trc.tracers {
			k := 0
			for _, sp := range t.kept() {
				if sp.Name != name {
					continue
				}
				if k == len(lo) {
					lo, hi = append(lo, sp.Start), append(hi, sp.End)
				}
				lo[k], hi[k] = min(lo[k], sp.Start), max(hi[k], sp.End)
				k++
			}
		}
		us := make([]float64, len(lo))
		for i := range lo {
			us[i] = float64(hi[i]-lo[i]) / 1e3
		}
		return median(us)
	}
	var spans int
	for _, t := range trc.tracers {
		spans += t.n
	}
	n := float64(countSteps)
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)

	res.PerLayer = map[string]float64{
		"session.setup_us": engSetup,

		"encmpi.seals_per_op":   d[cSeals] / n,
		"encmpi.opens_per_op":   d[cOpens] / n,
		"encmpi.auth_failures":  d[cAuthFailures],
		"encmpi.bcast_us":       collUs(spanBcast),
		"encmpi.allgather_us":   collUs(spanAllgather),
		"encmpi.alltoall_us":    collUs(spanAlltoall),
		"encmpi.in_place_ratio": ratio(d[cSealsInPlace]+d[cOpensInPlace], d[cSeals]+d[cOpens]),

		"mpi.op_us":       mpi.halves[1].stats(s.w).P50us,
		"mpi.msgs_per_op": d[cMsgsSent] / n,

		"transport.setup_us":     trSetup,
		"transport.bytes_per_op": d[cBytesSent] / n,

		"sim.wall_ms_per_op":       measured / 1e3,
		"sim.events_per_op":        float64(cnt.res.Events-base.res.Events) / n,
		"sim.events_per_s":         ratio(float64(ref.res.Events), ref.wall.Seconds()),
		"sim.packets_per_op":       float64(cnt.res.Packets-base.res.Packets) / n,
		"sim.wire_bytes_per_op":    float64(cnt.res.Bytes-base.res.Bytes) / n,
		"sim.virtual_op_us":        median(encVirt),
		"sim.virtual_plain_op_us":  median(plainVirt),
		"sim.virtual_overhead_x":   ratio(median(encVirt), median(plainVirt)),
		"sim.virtual_goodput_MBps": ratio(stepBytes, median(encVirt)),

		"costmodel.seal_us_256k": float64(profile.Curve.EncTime(256<<10)) / 1e3,
		"costmodel.open_us_256k": float64(profile.Curve.DecTime(256<<10)) / 1e3,

		"runtime.allocs_per_op":       d[cMallocs] / n,
		"runtime.alloc_bytes_per_op":  d[cAllocBytes] / n,
		"runtime.gc_cycles":           refMoved[cNumGC],
		"runtime.heap_sys_MB":         float64(heap.HeapSys) / 1e6,
		"runtime.p1_goodput_MBps":     p1.GoodputMBps,
		"runtime.multicore_speedup_x": ratio(median(column(refSegs, encGoodput)), p1.GoodputMBps),

		"trace.overhead_pct": ratio(median(column(trc.segments(s.w), encP50))-measured, measured) * 100,
		"trace.spans_per_op": float64(spans) / float64(tracedSegments*ops),
	}
	return res, trc.tracers, nil
}

// countSteps is the step count of the registry-counted job.
const countSteps = 2
