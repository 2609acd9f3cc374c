// Command benchjson emits the repository's machine-readable performance
// snapshot (committed as BENCH_PR10.json): seal/open ns/op, MB/s, and
// allocs/op for the sequential and chunked-parallel engines across message
// sizes, aggregate throughput of 16 concurrent 4 KiB messages through the
// parallel engine versus the serial real engine, an
// in-process encrypted ping-pong, simulated collective latencies including
// the segmented pipelined broadcast against plain Bcast, the multi-pair
// TCP bandwidth suite comparing the asynchronous batched wire engine
// against the synchronous write-under-mutex baseline (WithWireBatching),
// and the chunked-rendezvous p2p suite comparing unencrypted, serialized
// encrypted, and overlap-chunked encrypted 1 MiB transfers over real TCP
// and the simulated 40 G InfiniBand fabric (DESIGN.md §12), plus the
// session_overhead suite pricing the context-AAD binding of sessions
// (DESIGN.md §13) against the legacy nonce-only engine, and the shm_ring
// suite comparing the zero-copy slot-ring shm path against the seed's
// inline-copy delivery across eager message sizes (DESIGN.md §14), and the
// hier_coll suite comparing flat against topology-aware two-level
// collectives at p ∈ {64, 256, 1024} across the Ethernet, contended
// Ethernet, and InfiniBand presets with per-fabric crossover points
// (DESIGN.md §15), and the hear_allreduce suite comparing the
// additive-noise allreduce against the AEAD reduce-then-seal and
// hierarchical-AEAD comparators at 4 KiB–4 MiB and p ∈ {64, 256, 1024}
// (DESIGN.md §16).
//
// It uses its own fixed-duration timing loops rather than testing.B so the
// -quick mode can bound the total runtime for CI smoke use:
//
//	benchjson [-quick] [-o BENCH_PR10.json]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"encmpi"
)

type sealOpenEntry struct {
	Engine     string  `json:"engine"`
	Size       int     `json:"size"`
	SealNsOp   float64 `json:"seal_ns_op"`
	SealMBps   float64 `json:"seal_mb_s"`
	SealAllocs float64 `json:"seal_allocs_op"`
	OpenNsOp   float64 `json:"open_ns_op"`
	OpenMBps   float64 `json:"open_mb_s"`
	OpenAllocs float64 `json:"open_allocs_op"`
}

type concurrentEntry struct {
	Size         int     `json:"size"`
	Goroutines   int     `json:"goroutines"`
	ParallelMBps float64 `json:"parallel_mb_s"`
	RealMBps     float64 `json:"real_mb_s"`
	GainPct      float64 `json:"gain_pct"`
}

type pingPongEntry struct {
	Transport string  `json:"transport"`
	Size      int     `json:"size"`
	OneWayUs  float64 `json:"one_way_us"`
	MBps      float64 `json:"mb_s"`
}

type collectiveEntry struct {
	Op      string  `json:"op"`
	Ranks   int     `json:"ranks"`
	Nodes   int     `json:"nodes"`
	Size    int     `json:"size"`
	MeanUs  float64 `json:"mean_us"`
	Library string  `json:"library"`
}

type hierCollEntry struct {
	Net      string  `json:"net"`
	Op       string  `json:"op"`
	Ranks    int     `json:"ranks"`
	Nodes    int     `json:"nodes"`
	Size     int     `json:"size"`
	FlatUs   float64 `json:"flat_us"`
	HierUs   float64 `json:"hier_us"`
	SpeedupX float64 `json:"speedup_x"`
	Library  string  `json:"library"`
}

type hierCrossoverEntry struct {
	Net string `json:"net"`
	Op  string `json:"op"`
	// CrossoverRanks is the smallest measured rank count at which the
	// hierarchical algorithm beats the flat one on this fabric; 0 means it
	// never did within the sweep.
	CrossoverRanks int `json:"crossover_ranks"`
}

type bcastPipeEntry struct {
	Ranks          int     `json:"ranks"`
	Nodes          int     `json:"nodes"`
	Size           int     `json:"size"`
	BcastUs        float64 `json:"bcast_us"`
	BcastPipeUs    float64 `json:"bcastpipe_us"`
	ImprovementPct float64 `json:"improvement_pct"`
	Library        string  `json:"library"`
}

type multiPairEntry struct {
	Pairs       int     `json:"pairs"`
	Size        int     `json:"size"`
	MsgsPerPair int     `json:"msgs_per_pair"`
	BatchedMBps float64 `json:"batched_mb_s"`
	SyncMBps    float64 `json:"sync_mb_s"`
	GainPct     float64 `json:"gain_pct"`
	Flushes     uint64  `json:"batched_flushes"`
	Frames      uint64  `json:"batched_frames"`
	MeanBatch   float64 `json:"batched_mean_batch_frames"`
}

type chunkedP2PEntry struct {
	Transport string `json:"transport"`
	Size      int    `json:"size"`
	Msgs      int    `json:"msgs"`
	Engine    string `json:"engine"`
	// PlainMBps is the unencrypted baseline; SerialMBps seals each message
	// whole before the rendezvous (the paper's implementation); ChunkedMBps
	// is the transparent chunked overlap path.
	PlainMBps   float64 `json:"plain_mb_s"`
	SerialMBps  float64 `json:"serial_mb_s"`
	ChunkedMBps float64 `json:"chunked_mb_s"`
	// OverheadVsPlainPct is how far the chunked path trails the unencrypted
	// wire (the acceptance target is ≈10% or less); GainVsSerialPct is what
	// the overlap buys over sealing whole messages.
	OverheadVsPlainPct float64 `json:"chunked_overhead_vs_plain_pct"`
	GainVsSerialPct    float64 `json:"chunked_gain_vs_serial_pct"`
}

type sessionOverheadEntry struct {
	Size int `json:"size"`
	// LegacyNsOp seals+opens one message with the PR 1 RealEngine (no AAD);
	// SessionNsOp does the same through a session engine, which additionally
	// derives the 45-byte context AAD and runs the replay-window admit. The
	// acceptance target for the binding is ≤2% at 256 KiB.
	LegacyNsOp  float64 `json:"legacy_sealopen_ns_op"`
	SessionNsOp float64 `json:"session_sealopen_ns_op"`
	OverheadPct float64 `json:"overhead_pct"`
}

type shmRingEntry struct {
	Size  int `json:"size"`
	Iters int `json:"iters"`
	// RingMBps is one-way ping-pong bandwidth with the slot ring enabled
	// (engines seal into and open out of the shared slab in place);
	// InlineMBps is the same exchange with WithShmRing(-1, 0) — the seed's
	// pool-copy delivery.
	RingMBps   float64 `json:"ring_mb_s"`
	InlineMBps float64 `json:"inline_mb_s"`
	GainPct    float64 `json:"gain_pct"`
	// Counters from one instrumented ring run: every message must seal and
	// open in place, with zero spills to the pool fallback.
	SealsInPlace uint64 `json:"ring_seals_in_place"`
	OpensInPlace uint64 `json:"ring_opens_in_place"`
	Fallbacks    uint64 `json:"ring_fallbacks"`
}

type hearAllreduceEntry struct {
	Net   string `json:"net"`
	Ranks int    `json:"ranks"`
	Nodes int    `json:"nodes"`
	Size  int    `json:"size"`
	// HearUs is the additive-noise engine's production path: a persistent
	// AllreduceInit plan (key ceremony paid once at init), hierarchical on
	// these multi-node shapes — each rank masks once, the masked partials
	// reduce through shared memory and cross the network once per node with
	// no per-hop crypto, and every rank unmasks once (DESIGN.md §16).
	// HearFlatUs is the same algebra on the flat recursive-doubling
	// schedule, included so the topology factor is visible separately from
	// the sealing factor. SealedUs is the AEAD reduce-then-seal comparator
	// (every hop seals its payload and opens its partner's before combining
	// plaintext); HierAeadUs is the topology-aware AEAD allreduce
	// (intra-node plaintext aggregation, one sealed flow per node leader) —
	// the strongest AEAD baseline, so SpeedupVsHierAeadX isolates what
	// removing per-hop seal/open buys at equal topology awareness.
	HearUs             float64 `json:"hear_us"`
	HearFlatUs         float64 `json:"hear_flat_us"`
	SealedUs           float64 `json:"sealed_us"`
	HierAeadUs         float64 `json:"hier_aead_us"`
	SpeedupVsSealedX   float64 `json:"speedup_vs_sealed_x"`
	SpeedupVsHierAeadX float64 `json:"speedup_vs_hier_aead_x"`
	Library            string  `json:"library"`
}

type report struct {
	Schema        string                 `json:"schema"`
	GeneratedBy   string                 `json:"generated_by"`
	Quick         bool                   `json:"quick"`
	GoMaxProcs    int                    `json:"gomaxprocs"`
	SealOpen      []sealOpenEntry        `json:"seal_open"`
	Concurrent    concurrentEntry        `json:"concurrent_small"`
	PingPong      pingPongEntry          `json:"pingpong_shm"`
	Collectives   []collectiveEntry      `json:"collectives_sim"`
	HierColl      []hierCollEntry        `json:"hier_coll"`
	HierCrossover []hierCrossoverEntry   `json:"hier_coll_crossover"`
	BcastPipeline bcastPipeEntry         `json:"bcast_pipelined_sim"`
	MultiPairTCP  []multiPairEntry       `json:"multipair_tcp"`
	ChunkedP2P    []chunkedP2PEntry      `json:"chunked_p2p"`
	SessionCost   []sessionOverheadEntry `json:"session_overhead"`
	ShmRing       []shmRingEntry         `json:"shm_ring"`
	HearAllreduce []hearAllreduceEntry   `json:"hear_allreduce"`
}

func main() {
	quick := flag.Bool("quick", false, "short measurement loops for CI smoke use")
	out := flag.String("o", "BENCH_PR10.json", "output path ('-' for stdout)")
	flag.Parse()

	rep := report{
		Schema:      "encmpi-bench/1",
		GeneratedBy: "cmd/benchjson",
		Quick:       *quick,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	budget := 20 * time.Millisecond
	if *quick {
		budget = 2 * time.Millisecond
	}

	key := bytes.Repeat([]byte{0x42}, 32)
	mkEngine := func(kind string) encmpi.Engine {
		e, err := encmpi.NewEngine(encmpi.EngineSpec{Kind: kind, Codec: "aesstd", Key: key})
		if err != nil {
			log.Fatal(err)
		}
		return e
	}

	sizes := []int{1 << 10, 4 << 10, 64 << 10, 256 << 10, 1 << 20}
	if *quick {
		sizes = []int{4 << 10, 256 << 10}
	}
	for _, eng := range []struct{ name, kind string }{
		{"real-aesstd", "real"},
		{"parallel-pooled", "parallel"},
	} {
		for _, size := range sizes {
			rep.SealOpen = append(rep.SealOpen, measureSealOpen(eng.name, mkEngine(eng.kind), size, budget))
		}
	}

	rep.Concurrent = measureConcurrent(mkEngine, budget)
	rep.PingPong = measurePingPong(key, *quick)
	rep.Collectives, rep.BcastPipeline = measureCollectives(*quick)
	rep.HierColl, rep.HierCrossover = measureHierColl(*quick)
	rep.MultiPairTCP = measureMultiPair(*quick)
	rep.ChunkedP2P = measureChunkedP2P(key, *quick)
	rep.SessionCost = measureSessionOverhead(key, *quick)
	rep.ShmRing = measureShmRing(key, *quick)
	rep.HearAllreduce = measureHearAllreduce(key, *quick)

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	blob = append(blob, '\n')
	if *out == "-" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, len(blob))
}

// timeOp runs fn in a calibrated loop for roughly `budget` and returns
// ns/op.
func timeOp(budget time.Duration, fn func()) float64 {
	start := time.Now()
	fn()
	per := time.Since(start)
	iters := 1
	if per > 0 && per < budget {
		iters = int(budget/per) + 1
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

func measureSealOpen(name string, e encmpi.Engine, size int, budget time.Duration) sealOpenEntry {
	payload := encmpi.Bytes(bytes.Repeat([]byte{0xAB}, size))
	entry := sealOpenEntry{Engine: name, Size: size}

	entry.SealNsOp = timeOp(budget, func() {
		w := e.Seal(nil, payload)
		w.Release()
	})
	entry.SealMBps = float64(size) / entry.SealNsOp * 1e3
	entry.SealAllocs = testing.AllocsPerRun(10, func() {
		w := e.Seal(nil, payload)
		w.Release()
	})

	wire := e.Seal(nil, payload)
	entry.OpenNsOp = timeOp(budget, func() {
		p, err := e.Open(nil, wire)
		if err != nil {
			log.Fatalf("%s @%d: %v", name, size, err)
		}
		p.Release()
	})
	entry.OpenMBps = float64(size) / entry.OpenNsOp * 1e3
	entry.OpenAllocs = testing.AllocsPerRun(10, func() {
		p, err := e.Open(nil, wire)
		if err != nil {
			log.Fatalf("%s @%d: %v", name, size, err)
		}
		p.Release()
	})
	wire.Release()
	return entry
}

// measureConcurrent reports aggregate seal+open throughput of 16 goroutines
// each working independent 4 KiB messages — the concurrent-small-message
// regime the shared pool exists for — through the parallel engine and, as
// the baseline, the serial real engine.
func measureConcurrent(mk func(kind string) encmpi.Engine, budget time.Duration) concurrentEntry {
	const size = 4 << 10
	const conc = 16
	payload := bytes.Repeat([]byte{0xAB}, size)
	aggregate := func(e encmpi.Engine) float64 {
		nsPerRound := timeOp(budget*4, func() {
			var wg sync.WaitGroup
			for g := 0; g < conc; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 8; i++ {
						w := e.Seal(nil, encmpi.Bytes(payload))
						p, err := e.Open(nil, w)
						if err != nil {
							log.Fatal(err)
						}
						p.Release()
						w.Release()
					}
				}()
			}
			wg.Wait()
		})
		return float64(size) * 8 * conc / nsPerRound * 1e3 // MB/s
	}
	par := aggregate(mk("parallel"))
	real := aggregate(mk("real"))
	entry := concurrentEntry{Size: size, Goroutines: conc, ParallelMBps: par, RealMBps: real}
	if real > 0 {
		entry.GainPct = (par/real - 1) * 100
	}
	return entry
}

// measurePingPong times a blocking encrypted ping-pong over the in-process
// transport (real crypto, real clock).
func measurePingPong(key []byte, quick bool) pingPongEntry {
	const size = 64 << 10
	iters := 200
	if quick {
		iters = 20
	}
	payload := bytes.Repeat([]byte{0xCD}, size)
	var oneWay time.Duration
	err := encmpi.RunShm(2, func(c *encmpi.Comm) {
		sess, err := encmpi.NewSession(key)
		if err != nil {
			panic(err)
		}
		e, err := sess.Attach(c)
		if err != nil {
			panic(err)
		}
		peer := 1 - c.Rank()
		buf := encmpi.Bytes(payload)
		roundTrip := func() {
			if c.Rank() == 0 {
				e.Send(peer, 0, buf)
				if _, _, err := e.Recv(peer, 0); err != nil {
					panic(err)
				}
			} else {
				if _, _, err := e.Recv(peer, 0); err != nil {
					panic(err)
				}
				e.Send(peer, 0, buf)
			}
		}
		roundTrip() // warm-up
		start := time.Now()
		for i := 0; i < iters; i++ {
			roundTrip()
		}
		if c.Rank() == 0 {
			oneWay = time.Since(start) / time.Duration(2*iters)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	entry := pingPongEntry{Transport: "shm", Size: size, OneWayUs: oneWay.Seconds() * 1e6}
	if oneWay > 0 {
		entry.MBps = float64(size) / oneWay.Seconds() / 1e6
	}
	return entry
}

// measureCollectives runs the simulated collective latencies (virtual time;
// the numbers are deterministic modulo the calibration curves) and the
// BcastPipelined-vs-Bcast comparison.
func measureCollectives(quick bool) ([]collectiveEntry, bcastPipeEntry) {
	ranks, nodes, iters := 64, 8, 10
	if quick {
		ranks, nodes, iters = 16, 4, 2
	}
	model, err := encmpi.LibraryModel("boringssl", "gcc485", 256)
	if err != nil {
		log.Fatal(err)
	}
	mk := func(int) encmpi.Engine { return model }

	var colls []collectiveEntry
	for _, op := range []encmpi.CollectiveOp{encmpi.OpBcast, encmpi.OpAlltoall} {
		res, err := encmpi.Collective(encmpi.Eth10G(), mk, op, ranks, nodes, 16<<10, iters)
		if err != nil {
			log.Fatal(err)
		}
		colls = append(colls, collectiveEntry{
			Op: string(op), Ranks: ranks, Nodes: nodes, Size: 16 << 10,
			MeanUs: res.MeanLat.Seconds() * 1e6, Library: "boringssl/gcc485",
		})
	}

	// The pipelined-broadcast ablation: slow crypto (CryptoPP class) on the
	// fast fabric is where crypto/wire overlap pays.
	slow, err := encmpi.LibraryModel("cryptopp", "mvapich", 256)
	if err != nil {
		log.Fatal(err)
	}
	mkSlow := func(int) encmpi.Engine { return slow }
	const pipeSize = 1 << 20
	pipeRanks, pipeNodes := 8, 2
	pipeIters := 5
	if quick {
		pipeIters = 2
	}
	var lat [2]time.Duration
	for i, op := range []encmpi.CollectiveOp{encmpi.OpBcast, encmpi.OpBcastPipelined} {
		res, err := encmpi.Collective(encmpi.IB40G(), mkSlow, op, pipeRanks, pipeNodes, pipeSize, pipeIters)
		if err != nil {
			log.Fatal(err)
		}
		lat[i] = res.MeanLat
	}
	pipe := bcastPipeEntry{
		Ranks: pipeRanks, Nodes: pipeNodes, Size: pipeSize,
		BcastUs:     lat[0].Seconds() * 1e6,
		BcastPipeUs: lat[1].Seconds() * 1e6,
		Library:     "cryptopp/mvapich",
	}
	if lat[0] > 0 {
		pipe.ImprovementPct = (1 - lat[1].Seconds()/lat[0].Seconds()) * 100
	}
	return colls, pipe
}

// measureHierColl is the hier_coll suite (DESIGN.md §15): flat versus
// topology-aware two-level collectives at p ∈ {64, 256, 1024} on the
// paper testbed shape (8 ranks per node), across the calibrated Ethernet
// fabric, its contention-knee variant, and InfiniBand, all under the
// BoringSSL cost model. Alltoall stops at 256 ranks — the flat exchange is
// p×(p−1) messages and exists below the crossover to make the crossover
// itself visible. The crossover table reports, per (fabric, op), the
// smallest rank count where the hierarchical algorithm wins.
func measureHierColl(quick bool) ([]hierCollEntry, []hierCrossoverEntry) {
	model, err := encmpi.LibraryModel("boringssl", "gcc485", 256)
	if err != nil {
		log.Fatal(err)
	}
	mk := func(int) encmpi.Engine { return model }

	nets := []struct {
		name string
		cfg  encmpi.NetConfig
	}{
		{"eth10g", encmpi.Eth10G()},
		{"eth10g-contended", encmpi.Eth10GContended()},
		{"ib40g", encmpi.IB40G()},
	}
	type shape struct{ ranks, nodes int }
	shapes := []shape{{64, 8}, {256, 32}, {1024, 128}}
	if quick {
		shapes = shapes[:1]
	}
	pairs := []struct {
		name      string
		flat, hct encmpi.CollectiveOp
		// size maps rank count to message size: bandwidth-bound payloads
		// for bcast/allreduce, small blocks for the p²-volume exchanges.
		size     func(ranks int) int
		maxRanks int
	}{
		{"bcast", encmpi.OpBcast, encmpi.OpHierBcast, func(int) int { return 256 << 10 }, 1024},
		{"allreduce", encmpi.OpAllreduce, encmpi.OpHierAllreduce, func(int) int { return 64 << 10 }, 1024},
		{"allgather", encmpi.OpAllgather, encmpi.OpHierAllgather, func(ranks int) int {
			if ranks >= 1024 {
				return 256
			}
			return 1 << 10
		}, 1024},
		{"alltoall", encmpi.OpAlltoall, encmpi.OpHierAlltoall, func(int) int { return 512 }, 256},
	}

	var entries []hierCollEntry
	var crossovers []hierCrossoverEntry
	for _, net := range nets {
		for _, pr := range pairs {
			crossover := 0
			for _, sh := range shapes {
				if sh.ranks > pr.maxRanks {
					continue
				}
				iters := 4
				if quick || sh.ranks >= 1024 {
					iters = 2
				}
				size := pr.size(sh.ranks)
				var lat [2]time.Duration
				for i, op := range []encmpi.CollectiveOp{pr.flat, pr.hct} {
					res, err := encmpi.Collective(net.cfg, mk, op, sh.ranks, sh.nodes, size, iters)
					if err != nil {
						log.Fatal(err)
					}
					lat[i] = res.MeanLat
				}
				e := hierCollEntry{
					Net: net.name, Op: pr.name, Ranks: sh.ranks, Nodes: sh.nodes, Size: size,
					FlatUs: lat[0].Seconds() * 1e6, HierUs: lat[1].Seconds() * 1e6,
					Library: "boringssl/gcc485",
				}
				if lat[1] > 0 {
					e.SpeedupX = lat[0].Seconds() / lat[1].Seconds()
				}
				if e.SpeedupX > 1 && crossover == 0 {
					crossover = sh.ranks
				}
				entries = append(entries, e)
			}
			crossovers = append(crossovers, hierCrossoverEntry{Net: net.name, Op: pr.name, CrossoverRanks: crossover})
		}
	}
	return entries, crossovers
}

// runMultiPair times one multi-pair run: `pairs` disjoint sender→receiver
// rank pairs each pushing msgs messages of the given size concurrently over
// real TCP sockets. It returns the aggregate payload bandwidth in MB/s,
// measured between two barriers so mesh setup is excluded.
func runMultiPair(pairs, size, msgs int, batched bool, reg *encmpi.Registry) float64 {
	payload := bytes.Repeat([]byte{0xEE}, size)
	var elapsed time.Duration
	err := encmpi.RunTCP(2*pairs, func(c *encmpi.Comm) {
		c.Barrier()
		start := time.Now()
		if c.Rank()%2 == 0 {
			peer := c.Rank() + 1
			reqs := make([]*encmpi.Request, msgs)
			for i := range reqs {
				reqs[i] = c.Isend(peer, 0, encmpi.Bytes(payload))
			}
			if err := c.Waitall(reqs); err != nil {
				log.Fatal(err)
			}
		} else {
			peer := c.Rank() - 1
			for i := 0; i < msgs; i++ {
				buf, _ := c.Recv(peer, 0)
				buf.Release()
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			elapsed = time.Since(start)
		}
	}, encmpi.WithWireBatching(batched), encmpi.WithMetrics(reg))
	if err != nil {
		log.Fatal(err)
	}
	totalBytes := float64(pairs) * float64(msgs) * float64(size)
	return totalBytes / elapsed.Seconds() / 1e6
}

// measureMultiPair is the wire-engine A/B suite: aggregate bandwidth of
// several concurrent rank pairs, batched versus SyncWrites, across the
// regimes the engine was built for (small eager messages, where syscall
// coalescing pays) and the ones it must not hurt (large rendezvous
// payloads). The batched column also reports the engine's own accounting —
// flush count and mean frames per flush — as direct evidence the win comes
// from coalescing, not noise.
func measureMultiPair(quick bool) []multiPairEntry {
	pairs := 4
	sizes := []int{1 << 10, 4 << 10, 256 << 10, 1 << 20}
	rounds := 6
	if quick {
		pairs = 2
		sizes = []int{1 << 10, 256 << 10}
		rounds = 1
	}
	var out []multiPairEntry
	for _, size := range sizes {
		msgs := 512
		if size > 64<<10 {
			msgs = 48 // rendezvous regime: fewer, larger transfers
		}
		if quick {
			msgs /= 8
		}
		// The two modes are sampled in interleaved A/B/B/A rounds and scored
		// best-of: machine speed on a shared box drifts by tens of percent
		// between invocations, so back-to-back blocks per mode would measure
		// the drift, not the engine, while the max over interleaved samples
		// converges on each mode's capability under the same conditions.
		// Timed runs carry no metrics registry — accounting must not tax one
		// side — so the coalescing evidence (flush count, mean batch) comes
		// from one separate instrumented run after the timing.
		e := multiPairEntry{Pairs: pairs, Size: size, MsgsPerPair: msgs}
		keep := func(dst *float64, batched bool) {
			if v := runMultiPair(pairs, size, msgs, batched, nil); v > *dst {
				*dst = v
			}
		}
		for i := 0; i < rounds; i++ {
			keep(&e.BatchedMBps, true)
			keep(&e.SyncMBps, false)
			keep(&e.SyncMBps, false)
			keep(&e.BatchedMBps, true)
		}
		if e.SyncMBps > 0 {
			e.GainPct = (e.BatchedMBps/e.SyncMBps - 1) * 100
		}
		reg := encmpi.NewRegistry(2 * pairs)
		runMultiPair(pairs, size, msgs, true, reg)
		wire := reg.Snapshot().Wire
		e.Flushes, e.Frames = wire.Flushes, wire.Frames
		if wire.Flushes > 0 {
			e.MeanBatch = float64(wire.Frames) / float64(wire.Flushes)
		}
		out = append(out, e)
	}
	return out
}

// runChunkedTCP times one unidirectional 1 MiB stream over real TCP under
// one crypto mode, returning payload MB/s.
func runChunkedTCP(key []byte, size, msgs int, mode string) float64 {
	payload := bytes.Repeat([]byte{0xBE}, size)
	var elapsed time.Duration
	err := encmpi.RunTCP(2, func(c *encmpi.Comm) {
		var e *encmpi.EncryptedComm
		switch mode {
		case "plain":
			e = encmpi.EncryptWith(c, encmpi.Unencrypted(), encmpi.WithPipelineThreshold(-1))
		case "serial":
			sess, err := encmpi.NewSession(key)
			if err != nil {
				log.Fatal(err)
			}
			e, err = sess.Attach(c, encmpi.WithPipelineThreshold(-1))
			if err != nil {
				log.Fatal(err)
			}
		case "chunked":
			sess, err := encmpi.NewSession(key)
			if err != nil {
				log.Fatal(err)
			}
			e, err = sess.Attach(c)
			if err != nil {
				log.Fatal(err)
			}
		}
		c.Barrier()
		start := time.Now()
		switch c.Rank() {
		case 0:
			for i := 0; i < msgs; i++ {
				if err := e.Send(1, 0, encmpi.Bytes(payload)); err != nil {
					log.Fatal(err)
				}
			}
		case 1:
			for i := 0; i < msgs; i++ {
				buf, _, err := e.Recv(0, 0)
				if err != nil {
					log.Fatal(err)
				}
				buf.Release()
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			elapsed = time.Since(start)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return float64(size) * float64(msgs) / elapsed.Seconds() / 1e6
}

// runChunkedSim times the same stream on the simulated IB40G fabric in
// virtual time (deterministic). The encrypted modes model BoringSSL-256
// parallelized across the testbed's 8 cores (§V-C); serial and chunked use
// the identical engine so the comparison isolates the overlap alone.
func runChunkedSim(size, msgs int, mode string) float64 {
	spec := encmpi.PaperTestbed(2, 2)
	var elapsed time.Duration
	_, err := encmpi.RunSim(spec, encmpi.IB40G(), func(c *encmpi.Comm) {
		engine := func() encmpi.Engine {
			m, err := encmpi.NewEngine(encmpi.EngineSpec{
				Kind: "model", Library: "boringssl", Variant: "gcc485", KeyBits: 256, Threads: 8,
			})
			if err != nil {
				log.Fatal(err)
			}
			return m
		}
		var e *encmpi.EncryptedComm
		switch mode {
		case "plain":
			e = encmpi.EncryptWith(c, encmpi.Unencrypted(), encmpi.WithPipelineThreshold(-1))
		case "serial":
			e = encmpi.EncryptWith(c, engine(), encmpi.WithPipelineThreshold(-1))
		case "chunked":
			// Default geometry (256 KiB threshold, 128 KiB chunks): per-chunk
			// crypto (modeled, /8) sits well under the per-chunk wire time, so
			// the stream stays wire-bound.
			e = encmpi.EncryptWith(c, engine())
		}
		switch c.Rank() {
		case 0:
			for i := 0; i < msgs; i++ {
				if err := e.Send(1, 0, encmpi.Synthetic(size)); err != nil {
					log.Fatal(err)
				}
			}
		case 1:
			start := c.Proc().Now()
			for i := 0; i < msgs; i++ {
				buf, _, err := e.Recv(0, 0)
				if err != nil {
					log.Fatal(err)
				}
				buf.Release()
			}
			elapsed = c.Proc().Now() - start
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return float64(size) * float64(msgs) / elapsed.Seconds() / 1e6
}

// measureChunkedP2P is the acceptance suite of the transparent chunked
// overlap path (DESIGN.md §12): encrypted 1 MiB point-to-point bandwidth
// must land within ≈10% of the unencrypted baseline — and strictly above
// the serialized seal-whole-message path — on both the real TCP transport
// and the simulated InfiniBand fabric.
func measureChunkedP2P(key []byte, quick bool) []chunkedP2PEntry {
	const size = 1 << 20
	msgs, rounds := 32, 3
	if quick {
		msgs, rounds = 4, 1
	}

	tcp := chunkedP2PEntry{Transport: "tcp", Size: size, Msgs: msgs, Engine: "real-aesstd"}
	keep := func(dst *float64, mode string) {
		if v := runChunkedTCP(key, size, msgs, mode); v > *dst {
			*dst = v
		}
	}
	// Interleaved best-of sampling, like the multi-pair suite: host speed
	// drifts between invocations; the max under identical conditions is the
	// comparable statistic.
	for i := 0; i < rounds; i++ {
		keep(&tcp.PlainMBps, "plain")
		keep(&tcp.SerialMBps, "serial")
		keep(&tcp.ChunkedMBps, "chunked")
		keep(&tcp.ChunkedMBps, "chunked")
		keep(&tcp.SerialMBps, "serial")
		keep(&tcp.PlainMBps, "plain")
	}

	simMsgs := 16
	if quick {
		simMsgs = 4
	}
	sim := chunkedP2PEntry{Transport: "sim-ib40g", Size: size, Msgs: simMsgs, Engine: "model-boringssl-256/threads-8"}
	// Virtual time: one run per mode is exact.
	sim.PlainMBps = runChunkedSim(size, simMsgs, "plain")
	sim.SerialMBps = runChunkedSim(size, simMsgs, "serial")
	sim.ChunkedMBps = runChunkedSim(size, simMsgs, "chunked")

	out := []chunkedP2PEntry{tcp, sim}
	for i := range out {
		e := &out[i]
		if e.PlainMBps > 0 {
			e.OverheadVsPlainPct = (1 - e.ChunkedMBps/e.PlainMBps) * 100
		}
		if e.SerialMBps > 0 {
			e.GainVsSerialPct = (e.ChunkedMBps/e.SerialMBps - 1) * 100
		}
	}
	return out
}

// runShmRing times an encrypted session ping-pong over the shm transport at
// one size and ring configuration, returning one-way payload MB/s. The
// thresholds keep every size on the eager path (2 MiB eager window, chunked
// pipeline off) so the comparison isolates delivery — zero-copy slot ring
// versus the seed's pool-copy inline path — rather than protocol choice.
// Ping-pong keeps at most one slot in flight, so the ring run must never
// spill to the fallback.
func runShmRing(key []byte, size, iters int, ring bool, reg *encmpi.Registry) float64 {
	payload := bytes.Repeat([]byte{0xDA}, size)
	opts := []encmpi.Option{encmpi.WithEagerThreshold(2 << 20)}
	if ring {
		// Slots sized to the message (2x headroom for the AEAD frame, 64 KiB
		// floor) keep the slab working set proportional to the traffic; a
		// ping-pong holds one slot, so 4 slots is already generous.
		slot := 2 * size
		if slot < 64<<10 {
			slot = 64 << 10
		}
		opts = append(opts, encmpi.WithShmRing(4, slot))
	} else {
		opts = append(opts, encmpi.WithShmRing(-1, 0))
	}
	if reg != nil {
		opts = append(opts, encmpi.WithMetrics(reg))
	}
	var oneWay time.Duration
	err := encmpi.RunShm(2, func(c *encmpi.Comm) {
		sess, err := encmpi.NewSession(key)
		if err != nil {
			log.Fatal(err)
		}
		// Pipelined chunking off: it would route >=256 KiB messages through
		// the rendezvous path and bypass the eager delivery under test.
		e, err := sess.Attach(c, encmpi.WithPipelineThreshold(-1))
		if err != nil {
			log.Fatal(err)
		}
		peer := 1 - c.Rank()
		buf := encmpi.Bytes(payload)
		roundTrip := func() {
			if c.Rank() == 0 {
				e.Send(peer, 0, buf)
				if _, _, err := e.Recv(peer, 0); err != nil {
					log.Fatal(err)
				}
			} else {
				if _, _, err := e.Recv(peer, 0); err != nil {
					log.Fatal(err)
				}
				e.Send(peer, 0, buf)
			}
		}
		roundTrip() // warm-up: builds the rank-pair ring lazily
		start := time.Now()
		for i := 0; i < iters; i++ {
			roundTrip()
		}
		if c.Rank() == 0 {
			oneWay = time.Since(start) / time.Duration(2*iters)
		}
	}, opts...)
	if err != nil {
		log.Fatal(err)
	}
	return float64(size) / oneWay.Seconds() / 1e6
}

// measureShmRing is the acceptance suite of the zero-copy shm slot ring
// (DESIGN.md §14): encrypted eager ping-pong bandwidth with the ring must
// meet or beat the seed's inline pool-copy delivery across message sizes —
// the ring saves one full payload copy per message, so the gap should widen
// with size. Interleaved best-of sampling as in the other wall-clock suites;
// the timed runs carry no metrics registry, and the in-place/fallback
// evidence comes from one separate instrumented ring run.
func measureShmRing(key []byte, quick bool) []shmRingEntry {
	sizes := []int{4 << 10, 64 << 10, 256 << 10, 1 << 20}
	rounds := 3
	if quick {
		sizes = []int{4 << 10, 256 << 10}
		rounds = 1
	}
	var out []shmRingEntry
	for _, size := range sizes {
		iters := 256
		if size > 64<<10 {
			iters = 64
		}
		if quick {
			iters /= 8
		}
		e := shmRingEntry{Size: size, Iters: iters}
		keep := func(dst *float64, ring bool) {
			if v := runShmRing(key, size, iters, ring, nil); v > *dst {
				*dst = v
			}
		}
		for i := 0; i < rounds; i++ {
			keep(&e.RingMBps, true)
			keep(&e.InlineMBps, false)
			keep(&e.InlineMBps, false)
			keep(&e.RingMBps, true)
		}
		if e.InlineMBps > 0 {
			e.GainPct = (e.RingMBps/e.InlineMBps - 1) * 100
		}
		reg := encmpi.NewRegistry(2)
		runShmRing(key, size, iters, true, reg)
		snap := reg.Snapshot()
		e.SealsInPlace = snap.Total.Crypto.SealsInPlace
		e.OpensInPlace = snap.Total.Crypto.OpensInPlace
		e.Fallbacks = snap.Ring.Fallbacks
		out = append(out, e)
	}
	return out
}

// measureHearAllreduce is the acceptance suite of the additive-noise
// allreduce (DESIGN.md §16), run on the simulated Ethernet fabric in
// virtual time. The same int32-sum allreduce races four ways: the hear
// engine on its production path (a persistent plan, hierarchical on these
// shapes — mask once, combine ciphertext at every hop, unmask once, zero
// per-hop crypto), the same algebra on the flat recursive-doubling
// schedule, the AEAD reduce-then-seal comparator (per-hop seal/open around
// plaintext arithmetic, BoringSSL-256 parallelized across the testbed's 8
// cores), and the hierarchical AEAD allreduce (plaintext intra-node, sealed
// leader exchanges). The acceptance target: hear beats reduce-then-seal at
// every size ≥64 KiB at p=256.
func measureHearAllreduce(key []byte, quick bool) []hearAllreduceEntry {
	aeadEng, err := encmpi.NewEngine(encmpi.EngineSpec{
		Kind: "model", Library: "boringssl", Variant: "gcc485", KeyBits: 256, Threads: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	hearEng, err := encmpi.NewEngine(encmpi.EngineSpec{
		Kind: "hear", Library: "boringssl", Variant: "gcc485", KeyBits: 256, Workers: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	mkAEAD := func(int) encmpi.Engine { return aeadEng }
	mkHear := func(int) encmpi.Engine { return hearEng }

	type shape struct{ ranks, nodes int }
	shapes := []shape{{64, 8}, {256, 32}, {1024, 128}}
	sizes := []int{4 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
	if quick {
		shapes = shapes[:1]
		sizes = []int{4 << 10, 256 << 10}
	}
	var out []hearAllreduceEntry
	for _, sh := range shapes {
		for _, size := range sizes {
			iters := 3
			if quick || sh.ranks >= 1024 {
				iters = 2
			}
			run := func(mk encmpi.EngineFactory, op encmpi.CollectiveOp) float64 {
				res, err := encmpi.Collective(encmpi.Eth10G(), mk, op, sh.ranks, sh.nodes, size, iters)
				if err != nil {
					log.Fatalf("hear_allreduce %s p=%d size=%d: %v", op, sh.ranks, size, err)
				}
				return res.MeanLat.Seconds() * 1e6
			}
			e := hearAllreduceEntry{
				Net: "eth10g", Ranks: sh.ranks, Nodes: sh.nodes, Size: size,
				HearUs:     run(mkHear, encmpi.OpHearPlanAllreduce),
				HearFlatUs: run(mkHear, encmpi.OpHearAllreduce),
				SealedUs:   run(mkAEAD, encmpi.OpAllreduceSealed),
				HierAeadUs: run(mkAEAD, encmpi.OpHierAllreduce),
				Library:    "boringssl/gcc485",
			}
			if e.HearUs > 0 {
				e.SpeedupVsSealedX = e.SealedUs / e.HearUs
				e.SpeedupVsHierAeadX = e.HierAeadUs / e.HearUs
			}
			out = append(out, e)
		}
	}
	return out
}

// measureSessionOverhead compares a full seal+open round trip through the
// legacy RealEngine (nonce-only, no additional data) against the session
// engine, which also derives the 45-byte context AAD, authenticates it, and
// admits the sequence into the replay window. Fresh wire is sealed for every
// open because the session engine — correctly — rejects a re-opened record
// as a replay. Best-of-N rounds on both sides squeeze out scheduler noise;
// the overhead target at 256 KiB is ≤2%.
func measureSessionOverhead(key []byte, quick bool) []sessionOverheadEntry {
	sizes := []int{4 << 10, 256 << 10}
	if quick {
		sizes = []int{256 << 10}
	}
	budget := 40 * time.Millisecond
	rounds := 5
	if quick {
		budget = 4 * time.Millisecond
		rounds = 2
	}

	legacy, err := encmpi.NewEngine(encmpi.EngineSpec{Kind: "real", Codec: "aesstd", Key: key})
	if err != nil {
		log.Fatal(err)
	}
	sess, err := encmpi.NewSession(key)
	if err != nil {
		log.Fatal(err)
	}
	sessEng := sess.Engine()

	var out []sessionOverheadEntry
	for _, size := range sizes {
		payload := encmpi.Bytes(bytes.Repeat([]byte{0xAB}, size))
		roundTrip := func(e encmpi.Engine) func() {
			return func() {
				w := e.Seal(nil, payload)
				p, err := e.Open(nil, w)
				if err != nil {
					log.Fatalf("session_overhead @%d: %v", size, err)
				}
				p.Release()
				w.Release()
			}
		}
		entry := sessionOverheadEntry{Size: size}
		for i := 0; i < rounds; i++ {
			if v := timeOp(budget, roundTrip(legacy)); entry.LegacyNsOp == 0 || v < entry.LegacyNsOp {
				entry.LegacyNsOp = v
			}
			if v := timeOp(budget, roundTrip(sessEng)); entry.SessionNsOp == 0 || v < entry.SessionNsOp {
				entry.SessionNsOp = v
			}
		}
		if entry.LegacyNsOp > 0 {
			entry.OverheadPct = (entry.SessionNsOp/entry.LegacyNsOp - 1) * 100
		}
		out = append(out, entry)
	}
	return out
}
