package main

// The metric catalogue. BENCHMARK.json at the repository root declares the
// same names, units, directions and bounds; bench_test.go fails when the two
// disagree, so this table is the single place a metric is defined.

// e2eMetric is one end-to-end metric: what a user of the encrypted MPI layer
// sees. Bound is the share of the baseline median by which the metric may
// worsen before -compare (and the outside driver) calls it a regression.
type e2eMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the end-to-end metrics in print order. fail_ratio, the
// seventh, is reported by every run as failed ÷ attempted rather than listed
// here: it is 0 on every healthy run, and any increase is a regression.
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"op_us_p50", "us", "lower", 0.08},
	{"op_us_tail", "us", "lower", 0.15},
	{"goodput_MBps", "MB/s", "higher", 0.08},
	{"plain_op_us_p50", "us", "lower", 0.08},
	{"enc_overhead_x", "x", "lower", 0.10},
}

// layerMetric is one per-layer metric. Moves records, before anything is
// measured, which end-to-end metric on which workload a change to this number
// should move — and so, by omission, where the prediction is no change.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// "vus" is virtual microseconds: simulator time, bit-identical across runs
// and seeds, so it is kept apart from measured wall-clock "us".
var perLayer = []layerMetric{
	// aead: stand-alone replay of the aesstd codec over the workload's record shape.
	{"aead.seal_us", "us", "lower", "pp_1m_tcp goodput_MBps, enc_overhead_x (about half of one-way time); per-call part only on pp_1k_shm, stream_4k_tcp"},
	{"aead.open_us", "us", "lower", "as aead.seal_us"},
	{"aead.seal_MBps", "MB/s", "higher", "pp_1m_tcp goodput_MBps"},
	{"aead.open_MBps", "MB/s", "higher", "pp_1m_tcp goodput_MBps"},
	// session: replay of the attached session engine (AAD, nonce, replay window on top of aead).
	{"session.seal_us", "us", "lower", "pp_1k_shm, stream_4k_tcp op_us_p50, enc_overhead_x"},
	{"session.open_us", "us", "lower", "pp_1k_shm, stream_4k_tcp op_us_p50, enc_overhead_x"},
	{"session.self_us", "us", "lower", "pp_1k_shm, stream_4k_tcp op_us_p50; no change predicted on pp_1m_tcp (8 records per MiB) and coll_sim_64r"},
	{"session.setup_us", "us", "lower", "setup_s (small share)"},
	// encmpi: the encrypted communicator, in situ.
	{"encmpi.send_us", "us", "lower", "op_us_p50 of the three wall-clock workloads"},
	{"encmpi.recv_us", "us", "lower", "op_us_p50 of the three wall-clock workloads"},
	{"encmpi.wrap_us", "us", "lower", "plain_op_us_p50 and op_us_p50 of the three wall-clock workloads, most on pp_1k_shm"},
	{"encmpi.hidden_us", "us", "higher", "pp_1m_tcp goodput_MBps and nowhere else"},
	{"encmpi.residual_pct", "%", "higher", "signed budget residual; negative is cost the encrypted layer adds on top of its parts"},
	{"encmpi.chunks_per_msg", "count", "lower", "pp_1m_tcp goodput_MBps (chunk pipeline geometry)"},
	{"encmpi.seals_per_op", "count", "lower", "coll_sim_64r sim.virtual_op_us; fixed by the op shape elsewhere"},
	{"encmpi.opens_per_op", "count", "lower", "coll_sim_64r sim.virtual_op_us"},
	{"encmpi.in_place_ratio", "ratio", "higher", "pp_1k_shm op_us_p50"},
	{"encmpi.auth_failures", "count", "lower", "fail_ratio; must stay 0"},
	{"encmpi.bcast_us", "vus", "lower", "coll_sim_64r sim.virtual_op_us"},
	{"encmpi.allgather_us", "vus", "lower", "coll_sim_64r sim.virtual_op_us"},
	{"encmpi.alltoall_us", "vus", "lower", "coll_sim_64r sim.virtual_op_us"},
	// mpi: the plaintext communicator on wire-size payloads, the paper's T_comm(m+28).
	{"mpi.op_us", "us", "lower", "plain_op_us_p50 and op_us_p50 of all three wall-clock workloads"},
	{"mpi.self_us", "us", "lower", "as mpi.op_us, net of the raw medium"},
	{"mpi.msgs_per_op", "count", "lower", "coll_sim_64r sim.virtual_op_us; stream_4k_tcp op_us_p50"},
	{"mpi.wait_share", "ratio", "lower", "op_us_p50: time rank 0 is parked, not working"},
	// transport: shm rings and the TCP wire engine.
	{"transport.setup_us", "us", "lower", "setup_s"},
	{"transport.bytes_per_op", "B", "lower", "goodput_MBps"},
	{"transport.flushes_per_op", "count", "lower", "stream_4k_tcp goodput_MBps"},
	{"transport.frames_per_flush", "count", "higher", "stream_4k_tcp goodput_MBps; about 1 and irrelevant on pp_1m_tcp"},
	{"transport.inline_flush_ratio", "ratio", "higher", "pp_1m_tcp, stream_4k_tcp op_us_p50"},
	{"transport.write_errors", "count", "lower", "fail_ratio; must stay 0"},
	{"transport.ring_acquired_per_op", "count", "higher", "pp_1k_shm op_us_p50"},
	{"transport.ring_fallback_ratio", "ratio", "lower", "pp_1k_shm op_us_tail"},
	// sim + simnet: the discrete-event engine under coll_sim_64r.
	{"sim.wall_ms_per_op", "ms", "lower", "coll_sim_64r op_us_p50, setup_s; nothing virtual"},
	{"sim.events_per_op", "count", "lower", "coll_sim_64r op_us_p50"},
	{"sim.events_per_s", "1/s", "higher", "coll_sim_64r op_us_p50"},
	{"sim.packets_per_op", "count", "lower", "coll_sim_64r sim.virtual_op_us"},
	{"sim.wire_bytes_per_op", "B", "lower", "coll_sim_64r sim.virtual_op_us"},
	{"sim.virtual_op_us", "vus", "lower", "the paper's collective latency; moves only when the algorithm moves"},
	{"sim.virtual_plain_op_us", "vus", "lower", "baseline of sim.virtual_overhead_x"},
	{"sim.virtual_overhead_x", "x", "lower", "the paper's headline ratio at 64 ranks / 8 nodes"},
	{"sim.virtual_goodput_MBps", "MB/s", "higher", "bytes received by all ranks over virtual time"},
	// costmodel: the calibration the model engine charges.
	{"costmodel.seal_us_256k", "vus", "lower", "explains a sim.virtual_op_us move that is not algorithmic"},
	{"costmodel.open_us_256k", "vus", "lower", "as costmodel.seal_us_256k"},
	// Go runtime, not a repo layer.
	{"runtime.allocs_per_op", "count", "lower", "op_us_tail on pp_1k_shm and stream_4k_tcp"},
	{"runtime.alloc_bytes_per_op", "B", "lower", "op_us_tail on pp_1k_shm and stream_4k_tcp"},
	{"runtime.gc_cycles", "count", "lower", "op_us_tail"},
	{"runtime.heap_sys_MB", "MB", "lower", "none; memory is its own cost"},
	{"runtime.p1_goodput_MBps", "MB/s", "higher", "goodput_MBps at one core"},
	{"runtime.multicore_speedup_x", "x", "higher", "pp_1m_tcp goodput_MBps"},
	// The machine, not a repo layer: read these first when a number moves on both commits.
	{"calib.copy_MBps", "MB/s", "higher", "none; machine speed"},
	{"calib.gcm_MBps", "MB/s", "higher", "none; machine speed"},
	{"calib.loopback_us", "us", "lower", "none; machine speed"},
	{"calib.handoff_ns", "ns", "lower", "none; machine speed"},
	// The tracing itself.
	{"trace.overhead_pct", "%", "lower", "none; the budget of in-program tracing is judged with it on pp_1k_shm"},
	{"trace.spans_per_op", "count", "lower", "trace.overhead_pct"},
}
