package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"encmpi"
)

// The traced pass of a wall-clock workload: per-layer numbers and the budget
// that reconciles them with the end-to-end time the way the paper explains
// encrypted ping-pong, T_comm(m+28) + T_enc + T_dec. End-to-end metrics never
// come from here.

// replayCalls is the least number of calls a stand-alone replay times.
const replayCalls = 1024

// batchMedianUs times seal and open over the record shape in batches (small
// records are too short to time one by one) and returns the median per-call
// time of each, in µs. open(k) must open what seal(k) produced.
func batchMedianUs(recordBytes int, seal, open func(k int)) (sealUs, openUs float64) {
	batch := 16
	if recordBytes >= 64<<10 {
		batch = 1
	}
	rounds := replayCalls / batch
	sealT, openT := make([]float64, rounds), make([]float64, rounds)
	for r := range sealT {
		t := time.Now()
		for k := 0; k < batch; k++ {
			seal(k)
		}
		sealT[r] = time.Since(t).Seconds() * 1e6 / float64(batch)
		t = time.Now()
		for k := 0; k < batch; k++ {
			open(k)
		}
		openT[r] = time.Since(t).Seconds() * 1e6 / float64(batch)
	}
	return median(sealT), median(openT)
}

// aeadReplay times the bare aesstd codec, the kernel under every session.
func aeadReplay(in *inputs, record []byte) (sealUs, openUs float64, err error) {
	codec, err := encmpi.NewCodec("aesstd", in.key)
	if err != nil {
		return 0, 0, err
	}
	var nonces [16][encmpi.NonceSize]byte
	var wires [16][]byte
	plain := make([]byte, 0, len(record))
	var ctr uint64
	sealUs, openUs = batchMedianUs(len(record),
		func(k int) {
			ctr++
			binary.BigEndian.PutUint64(nonces[k][4:], ctr)
			wires[k] = codec.Seal(wires[k][:0], nonces[k][:], record)
		},
		func(k int) {
			if _, oerr := codec.Open(plain[:0], nonces[k][:], wires[k]); oerr != nil && err == nil {
				err = fmt.Errorf("aead replay: %w", oerr)
			}
		})
	return sealUs, openUs, err
}

// sessionReplay times the attached session engine — AAD, nonce and replay
// window on top of the codec — and NewSession+Attach itself. The engine's
// fast paths are found through unexported interfaces, so wrapping it from
// outside would select a slower path in the workload: it is replayed
// stand-alone instead, on a one-rank shm job because Attach needs a
// communicator.
func sessionReplay(in *inputs, record []byte) (sealUs, openUs, setupUs float64, err error) {
	fail := func(e error) {
		if e != nil && err == nil {
			err = fmt.Errorf("session replay: %w", e)
		}
	}
	runErr := encmpi.RunShm(1, func(c *encmpi.Comm) {
		var sess *encmpi.Session
		setupUs = timeMedian(101, func() {
			s, serr := encmpi.NewSession(in.key)
			fail(serr)
			if serr == nil {
				_, aerr := s.Attach(c)
				fail(aerr)
				sess = s
			}
		}) * 1e6
		if err != nil {
			return
		}
		eng := sess.Engine()
		var wires [16]encmpi.Buffer
		sealUs, openUs = batchMedianUs(len(record),
			func(k int) { wires[k] = eng.Seal(nil, encmpi.Bytes(record)) },
			func(k int) {
				plain, oerr := eng.Open(nil, wires[k])
				fail(oerr)
				plain.Release()
				wires[k].Release()
			})
	})
	fail(runErr)
	return sealUs, openUs, setupUs, err
}

// mpiReplay runs the workload's op shape on the plaintext communicator with
// wire-size payloads — the paper's T_comm(m+28) — verifying every payload in
// full like the traced ops it is compared with, and returns the median per-op
// time in µs (one-way for a ping-pong).
func (p *pairRun) mpiReplay(ops int) (float64, error) {
	w, in := p.w, p.in
	var opUs float64
	var failed int
	err := p.launch(func(c *encmpi.Comm) {
		rank := c.Rank()
		mine, theirs := in.wire[rank], in.wire[1-rank]
		reqs := make([]*encmpi.Request, w.Window)
		per := len(in.wire[0]) / w.Window
		recv := func(want []byte, req *encmpi.Request) bool {
			var buf encmpi.Buffer
			if req != nil {
				buf, _ = c.Wait(req)
			} else {
				buf, _ = c.Recv(1-rank, 0)
			}
			ok := in.verify(buf, want, 0, true)
			buf.Release()
			return ok
		}
		op := func() bool {
			switch {
			case w.Window == 1 && rank == 0:
				return c.Send(1, 0, encmpi.Bytes(mine)) == nil && recv(theirs, nil)
			case w.Window == 1:
				ok := recv(theirs, nil)
				return c.Send(0, 0, encmpi.Bytes(mine)) == nil && ok
			case rank == 0:
				for k := range reqs {
					reqs[k] = c.Isend(1, 0, encmpi.Bytes(mine[k*per:(k+1)*per]))
				}
				return c.Waitall(reqs) == nil && recv(theirs, nil)
			}
			ok := true
			for k := range reqs {
				reqs[k] = c.Irecv(0, 0)
			}
			for k, req := range reqs {
				ok = recv(theirs[k*per:(k+1)*per], req) && ok
			}
			return c.Send(0, 0, encmpi.Bytes(mine)) == nil && ok
		}
		for i := 0; i < max(1, ops/10); i++ {
			op()
		}
		samples := make([]int64, ops)
		c.Barrier()
		start := time.Now()
		var prev time.Duration
		for i := range samples {
			if !op() && rank == 0 {
				failed++
			}
			now := time.Since(start)
			samples[i] = int64(now - prev)
			prev = now
		}
		c.Barrier()
		if rank == 0 {
			opUs = w.reduceHalf(samples, time.Since(start), 0, 0).P50us
		}
	})
	if err == nil && failed > 0 {
		err = fmt.Errorf("mpi replay: %d of %d ops failed", failed, ops)
	}
	return opUs, err
}

// transportSetupUs is launcher call -> first verified byte on the peer,
// median of 101 fresh jobs: the cold part of set-up, which setup_s dilutes
// with its fixed warm-up on purpose.
func (p *pairRun) transportSetupUs() (float64, error) {
	var err error
	us := timeMedian(101, func() {
		var ok bool
		jerr := p.launch(func(c *encmpi.Comm) {
			if c.Rank() == 0 {
				if serr := c.Send(1, 0, encmpi.Bytes(p.in.key[:1])); serr != nil {
					panic(serr)
				}
				return
			}
			buf, _ := c.Recv(0, 0)
			ok = buf.Len() == 1 && len(buf.Data) == 1 && buf.Data[0] == p.in.key[0]
			buf.Release()
		})
		if jerr == nil && !ok {
			jerr = fmt.Errorf("transport set-up: first byte did not verify")
		}
		if jerr != nil && err == nil {
			err = jerr
		}
	}) * 1e6
	return us, err
}

// traced is the traced pass of a wall-clock workload.
func (p *pairRun) traced(cfg runConfig) (passResult, []*tracer, error) {
	var res passResult
	w := p.w
	ops := w.ops(cfg.seconds)
	plan := jobPlan{warm: max(1, ops/10), segments: tracedSegments, ops: ops, full: true}

	// Reference: the untraced configuration with the traced pass's full
	// verification, so that the difference to the traced job is tracing
	// alone; it also carries the one-core half.
	refPlan := plan
	refPlan.p1 = true
	ref, err := p.job(refPlan)
	if err != nil {
		return res, nil, err
	}
	plan.traced = true
	trc, err := p.job(plan)
	if err != nil {
		return res, nil, err
	}
	for _, out := range []jobOut{ref, trc} {
		t := out.totals()
		res.Attempted += t.attempted
		res.Failed += t.failed
	}

	d := trc.delta
	res.Invariant = d.invariants()
	if d[cSeals] != d[cOpens] {
		res.Invariant = append(res.Invariant, fmt.Sprintf("%.0f seals but %.0f opens", d[cSeals], d[cOpens]))
	}

	record := p.in.pay[0][:w.recordBytes()]
	aeadSeal, aeadOpen, err := aeadReplay(p.in, record)
	if err != nil {
		return res, nil, err
	}
	sessSeal, sessOpen, sessSetup, err := sessionReplay(p.in, record)
	if err != nil {
		return res, nil, err
	}
	mpiUs, err := p.mpiReplay(ops)
	if err != nil {
		return res, nil, err
	}
	trSetup, err := p.transportSetupUs()
	if err != nil {
		return res, nil, err
	}

	measured := median(column(ref.segs, encP50))
	// The budget: the plaintext communicator on wire-size payloads, what the
	// EncryptedComm wrapper adds with a pass-through engine, and one seal and
	// one open per record, against the measured encrypted op. What the sum
	// exceeds the measurement by was hidden behind the wire or the peer.
	wrapUs := median(column(ref.segs, plainP50)) - mpiUs
	n := float64(w.recordsPerOp())
	modelSum := mpiUs + wrapUs + n*sessSeal + n*sessOpen
	encOps := float64(trc.encOps)
	medium := cfg.calib.LoopbackUs
	if w.Transport == "shm" {
		medium = cfg.calib.HandoffNs / 1e3
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	mb := float64(len(record)) / 1e6

	res.PerLayer = map[string]float64{
		"aead.seal_us":    aeadSeal,
		"aead.open_us":    aeadOpen,
		"aead.seal_MBps":  ratio(mb, aeadSeal/1e6),
		"aead.open_MBps":  ratio(mb, aeadOpen/1e6),
		"session.seal_us": sessSeal,
		"session.open_us": sessOpen,
		"session.self_us": sessSeal + sessOpen - aeadSeal - aeadOpen,

		"session.setup_us": sessSetup,

		"encmpi.send_us":        median(trc.tracers[0].durationsUs(spanSend)),
		"encmpi.recv_us":        median(trc.tracers[0].durationsUs(spanRecv)),
		"encmpi.wrap_us":        wrapUs,
		"encmpi.hidden_us":      max(0, modelSum-measured),
		"encmpi.residual_pct":   (modelSum - measured) / measured * 100,
		"encmpi.chunks_per_msg": ratio(d[cChunksSent], encOps*float64(w.dataMsgsPerOp())),
		"encmpi.seals_per_op":   d[cSeals] / encOps,
		"encmpi.opens_per_op":   d[cOpens] / encOps,
		"encmpi.in_place_ratio": ratio(d[cSealsInPlace]+d[cOpensInPlace], d[cSeals]+d[cOpens]),
		"encmpi.auth_failures":  d[cAuthFailures],

		"mpi.op_us":       mpiUs,
		"mpi.self_us":     mpiUs - medium,
		"mpi.msgs_per_op": d[cMsgsSent] / encOps,
		"mpi.wait_share":  d[cWaitNanosRank0] / float64(trc.encWall),

		"transport.setup_us":             trSetup,
		"transport.bytes_per_op":         d[cBytesSent] / encOps,
		"transport.flushes_per_op":       d[cFlushes] / encOps,
		"transport.frames_per_flush":     ratio(d[cFrames], d[cFlushes]),
		"transport.inline_flush_ratio":   ratio(d[cInlineFlushes], d[cFlushes]),
		"transport.write_errors":         d[cWriteErrors],
		"transport.ring_acquired_per_op": d[cRingAcquired] / encOps,
		"transport.ring_fallback_ratio":  ratio(d[cRingFallbacks], d[cRingAcquired]+d[cRingFallbacks]),

		"runtime.allocs_per_op":       d[cMallocs] / encOps,
		"runtime.alloc_bytes_per_op":  d[cAllocBytes] / encOps,
		"runtime.gc_cycles":           d[cNumGC],
		"runtime.heap_sys_MB":         float64(mem.HeapSys) / 1e6,
		"runtime.p1_goodput_MBps":     ref.p1.GoodputMBps,
		"runtime.multicore_speedup_x": ratio(median(column(ref.segs, encGoodput)), ref.p1.GoodputMBps),

		"trace.overhead_pct": ratio(median(column(trc.segs, encP50))-measured, measured) * 100,
		"trace.spans_per_op": float64(trc.tracers[0].n+trc.tracers[1].n) / encOps,
	}
	return res, trc.tracers, nil
}
