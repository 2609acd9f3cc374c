// Benchmark harness: one testing.B benchmark per table and figure of the
// paper (running a tractable configuration of the same experiment code the
// full reproduction uses — `go run ./cmd/reproduce` regenerates the
// full-scale tables), plus microbenchmarks of the real AEAD tiers and the
// ablations listed in DESIGN.md §5.
package encmpi

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"encmpi/internal/aead"
	"encmpi/internal/aead/aessoft"
	"encmpi/internal/aead/codecs"
	gcmpkg "encmpi/internal/aead/gcm"
	"encmpi/internal/costmodel"
	enc "encmpi/internal/encmpi"
	"encmpi/internal/nas"
	"encmpi/internal/osu"
	"encmpi/internal/simnet"
)

// ---- Real AEAD tiers (the measured side of Fig 2 / Fig 9) ----------------

// BenchmarkCodecs measures Seal+Open throughput of the three real AES-GCM
// tiers across message sizes.
func BenchmarkCodecs(b *testing.B) {
	key := bytes.Repeat([]byte{0x42}, 32)
	for _, name := range codecs.GCMNames() {
		codec, err := codecs.New(name, key)
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range []int{256, 16 << 10, 1 << 20} {
			b.Run(fmt.Sprintf("%s/%d", name, size), func(b *testing.B) {
				pt := make([]byte, size)
				nonce := make([]byte, aead.NonceSize)
				ct := codec.Seal(nil, nonce, pt)
				out := make([]byte, 0, size)
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ct = codec.Seal(ct[:0], nonce, pt)
					if _, err := codec.Open(out[:0], nonce, ct); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSealOnly isolates encryption (half of the Fig 2 metric).
func BenchmarkSealOnly(b *testing.B) {
	key := bytes.Repeat([]byte{1}, 32)
	for _, name := range codecs.GCMNames() {
		codec, _ := codecs.New(name, key)
		b.Run(name, func(b *testing.B) {
			pt := make([]byte, 64<<10)
			nonce := make([]byte, aead.NonceSize)
			var ct []byte
			b.SetBytes(int64(len(pt)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ct = codec.Seal(ct[:0], nonce, pt)
			}
		})
	}
}

// ---- Simulation-backed experiment benches ---------------------------------

// libModel builds the model-engine factory for a paper library.
func libModel(b *testing.B, lib string, v costmodel.Variant) osu.EngineFactory {
	b.Helper()
	p, err := costmodel.Lookup(lib, v, 256)
	if err != nil {
		b.Fatal(err)
	}
	return func(int) Engine { return enc.NewModelEngine(p) }
}

// benchPingPong runs the ping-pong experiment and reports MB/s.
func benchPingPong(b *testing.B, cfg simnet.Config, mk osu.EngineFactory, size int) {
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := osu.PingPong(cfg, mk, size, 20)
		if err != nil {
			b.Fatal(err)
		}
		last = res.Throughput
	}
	b.ReportMetric(last, "MB/s")
}

// BenchmarkFig2EncDec exercises the curve lookup path of Fig 2.
func BenchmarkFig2EncDec(b *testing.B) {
	p, _ := costmodel.Lookup("boringssl", costmodel.GCC485, 256)
	for i := 0; i < b.N; i++ {
		for _, s := range []int{256, 16 << 10, 2 << 20} {
			_ = p.Curve.EncDecTime(s)
		}
	}
}

// BenchmarkFig9EncDec exercises the MVAPICH-variant curves of Fig 9.
func BenchmarkFig9EncDec(b *testing.B) {
	p, _ := costmodel.Lookup("cryptopp", costmodel.MVAPICH, 256)
	for i := 0; i < b.N; i++ {
		for _, s := range []int{256, 16 << 10, 2 << 20} {
			_ = p.Curve.EncDecTime(s)
		}
	}
}

func BenchmarkTable1PingPongSmallEth(b *testing.B) {
	benchPingPong(b, simnet.Eth10G(), libModel(b, "boringssl", costmodel.GCC485), 256)
}

func BenchmarkFig3PingPongLargeEth(b *testing.B) {
	benchPingPong(b, simnet.Eth10G(), libModel(b, "boringssl", costmodel.GCC485), 2<<20)
}

func BenchmarkTable5PingPongSmallIB(b *testing.B) {
	benchPingPong(b, simnet.IB40G(), libModel(b, "boringssl", costmodel.MVAPICH), 256)
}

func BenchmarkFig10PingPongLargeIB(b *testing.B) {
	benchPingPong(b, simnet.IB40G(), libModel(b, "boringssl", costmodel.MVAPICH), 2<<20)
}

// benchMultiPair runs the multi-pair experiment at 4 pairs.
func benchMultiPair(b *testing.B, cfg simnet.Config, v costmodel.Variant, size int) {
	mk := libModel(b, "boringssl", v)
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := osu.MultiPair(cfg, mk, size, 4, 2)
		if err != nil {
			b.Fatal(err)
		}
		last = res.Throughput
	}
	b.ReportMetric(last, "MB/s")
}

func BenchmarkFig4MultiPair1BEth(b *testing.B) {
	benchMultiPair(b, simnet.Eth10G(), costmodel.GCC485, 1)
}

func BenchmarkFig5MultiPair16KBEth(b *testing.B) {
	benchMultiPair(b, simnet.Eth10G(), costmodel.GCC485, 16<<10)
}

func BenchmarkFig6MultiPair2MBEth(b *testing.B) {
	benchMultiPair(b, simnet.Eth10G(), costmodel.GCC485, 2<<20)
}

func BenchmarkFig11MultiPair1BIB(b *testing.B) {
	benchMultiPair(b, simnet.IB40G(), costmodel.MVAPICH, 1)
}

func BenchmarkFig12MultiPair16KBIB(b *testing.B) {
	benchMultiPair(b, simnet.IB40G(), costmodel.MVAPICH, 16<<10)
}

func BenchmarkFig13MultiPair2MBIB(b *testing.B) {
	benchMultiPair(b, simnet.IB40G(), costmodel.MVAPICH, 2<<20)
}

// benchCollective times one collective invocation at the paper's 64/8 shape.
func benchCollective(b *testing.B, cfg simnet.Config, v costmodel.Variant, op osu.CollectiveOp, size int) {
	mk := libModel(b, "boringssl", v)
	var last time.Duration
	for i := 0; i < b.N; i++ {
		res, err := osu.Collective(cfg, mk, op, 64, 8, size, 2)
		if err != nil {
			b.Fatal(err)
		}
		last = res.MeanLat
	}
	b.ReportMetric(last.Seconds()*1e6, "µs/op-mean")
}

func BenchmarkTable2BcastEth(b *testing.B) {
	benchCollective(b, simnet.Eth10G(), costmodel.GCC485, osu.OpBcast, 16<<10)
}

func BenchmarkTable3AlltoallEth(b *testing.B) {
	benchCollective(b, simnet.Eth10G(), costmodel.GCC485, osu.OpAlltoall, 16<<10)
}

func BenchmarkTable6BcastIB(b *testing.B) {
	benchCollective(b, simnet.IB40G(), costmodel.MVAPICH, osu.OpBcast, 16<<10)
}

func BenchmarkTable7AlltoallIB(b *testing.B) {
	benchCollective(b, simnet.IB40G(), costmodel.MVAPICH, osu.OpAlltoall, 16<<10)
}

// benchNAS runs one NAS kernel at class A / 16 ranks (the full class C / 64
// tables come from cmd/reproduce or cmd/nasbench).
func benchNAS(b *testing.B, cfg simnet.Config, v costmodel.Variant, kernel string) {
	mk := libModel(b, "boringssl", v)
	var last time.Duration
	for i := 0; i < b.N; i++ {
		res, err := nas.Run(kernel, 'A', 16, 4, cfg, func(r int) Engine { return mk(r) }, 50*time.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		last = res.Elapsed
	}
	b.ReportMetric(last.Seconds(), "sim-s")
}

func BenchmarkTable4NASEth(b *testing.B) {
	for _, k := range nas.Kernels() {
		b.Run(k, func(b *testing.B) { benchNAS(b, simnet.Eth10G(), costmodel.GCC485, k) })
	}
}

func BenchmarkTable8NASIB(b *testing.B) {
	for _, k := range nas.Kernels() {
		b.Run(k, func(b *testing.B) { benchNAS(b, simnet.IB40G(), costmodel.MVAPICH, k) })
	}
}

// ---- Ablations (DESIGN.md §5 and X2-X4) -----------------------------------

// BenchmarkAblationGCMvsCCM verifies the paper's §III-A claim that GCM is
// the faster of the two integrity-providing modes, using identical T-table
// AES underneath.
func BenchmarkAblationGCMvsCCM(b *testing.B) {
	key := bytes.Repeat([]byte{3}, 32)
	for _, name := range []string{"aessoft", "ccmsoft"} {
		codec, err := codecs.New(name, key)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			pt := make([]byte, 64<<10)
			nonce := make([]byte, aead.NonceSize)
			var ct []byte
			b.SetBytes(int64(len(pt)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ct = codec.Seal(ct[:0], nonce, pt)
			}
		})
	}
}

// BenchmarkAblationKeySize compares AES-GCM-128 and -256 on the real fast
// tier (the paper ran both and reported identical trends).
func BenchmarkAblationKeySize(b *testing.B) {
	for _, bits := range []int{128, 256} {
		key := bytes.Repeat([]byte{5}, bits/8)
		codec, err := codecs.New("aesstd", key)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("aes%d", bits), func(b *testing.B) {
			pt := make([]byte, 256<<10)
			nonce := make([]byte, aead.NonceSize)
			var ct []byte
			b.SetBytes(int64(len(pt)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ct = codec.Seal(ct[:0], nonce, pt)
			}
		})
	}
}

// BenchmarkAblationParallelCrypto quantifies the paper's §V-C suggestion:
// multi-threaded encryption on the 2MB InfiniBand ping-pong.
func BenchmarkAblationParallelCrypto(b *testing.B) {
	p, err := costmodel.Lookup("boringssl", costmodel.MVAPICH, 256)
	if err != nil {
		b.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4, 8} {
		threads := threads
		b.Run(fmt.Sprintf("threads%d", threads), func(b *testing.B) {
			mk := func(int) Engine {
				e := enc.NewModelEngine(p)
				e.Threads = threads
				return e
			}
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := osu.PingPong(simnet.IB40G(), mk, 2<<20, 10)
				if err != nil {
					b.Fatal(err)
				}
				last = res.Throughput
			}
			b.ReportMetric(last, "MB/s")
		})
	}
}

// BenchmarkNonceSource compares Algorithm 1's per-message RAND_bytes nonce
// against the counter-nonce ablation.
func BenchmarkNonceSource(b *testing.B) {
	b.Run("random", func(b *testing.B) {
		var src aead.RandomNonce
		n := make([]byte, aead.NonceSize)
		for i := 0; i < b.N; i++ {
			if err := src.Next(n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("counter", func(b *testing.B) {
		src := aead.NewCounterNonce(1)
		n := make([]byte, aead.NonceSize)
		for i := 0; i < b.N; i++ {
			if err := src.Next(n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationNonblockingOverlap measures the value of the paper's
// decrypt-inside-Wait design: a receiver that overlaps computation with the
// in-flight encrypted message versus one that blocks immediately.
func BenchmarkAblationNonblockingOverlap(b *testing.B) {
	p, err := costmodel.Lookup("boringssl", costmodel.GCC485, 256)
	if err != nil {
		b.Fatal(err)
	}
	const size = 1 << 20
	const compute = 800 * time.Microsecond
	run := func(overlap bool) time.Duration {
		spec := PaperTestbed(2, 2)
		var elapsed time.Duration
		_, err := RunSim(spec, Eth10G(), func(c *Comm) {
			e := EncryptWith(c, enc.NewModelEngine(p))
			switch c.Rank() {
			case 0:
				e.Send(1, 0, Synthetic(size))
			case 1:
				start := c.Proc().Now()
				if overlap {
					req := e.Irecv(0, 0)
					c.Proc().Advance(compute)
					if _, _, err := e.Wait(req); err != nil {
						panic(err)
					}
				} else {
					if _, _, err := e.Recv(0, 0); err != nil {
						panic(err)
					}
					c.Proc().Advance(compute)
				}
				elapsed = c.Proc().Now() - start
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		return elapsed
	}
	var blocking, overlapped time.Duration
	for i := 0; i < b.N; i++ {
		blocking = run(false)
		overlapped = run(true)
	}
	b.ReportMetric(blocking.Seconds()*1e6, "blocking-µs")
	b.ReportMetric(overlapped.Seconds()*1e6, "overlapped-µs")
}

// BenchmarkSimulatorEventRate measures raw discrete-event throughput — the
// capacity number that bounds how large a cluster the simulator can handle.
func BenchmarkSimulatorEventRate(b *testing.B) {
	spec := PaperTestbed(16, 4)
	var events uint64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		res, err := RunSim(spec, IB40G(), func(c *Comm) {
			for it := 0; it < 50; it++ {
				blocks := make([]Buffer, c.Size())
				for d := range blocks {
					blocks[d] = Synthetic(4096)
				}
				c.Alltoall(blocks)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
		wall = time.Since(start)
	}
	b.ReportMetric(float64(events)/wall.Seconds(), "events/s")
}

// BenchmarkGhashStrategies compares the three GHASH implementations on a
// fixed subkey — the internal knob behind the aessoft/aessoft8 tiers.
func BenchmarkGhashStrategies(b *testing.B) {
	h := gcmpkg.Element{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	data := make([]byte, 16<<10)
	strategies := []struct {
		name string
		mk   gcmpkg.GhashFactory
	}{
		{"naive-bitwise", gcmpkg.NewNaiveGhash},
		{"table-4bit", aessoft.NewTableGhash},
		{"table-8bit", aessoft.NewTable8Ghash},
	}
	for _, s := range strategies {
		b.Run(s.name, func(b *testing.B) {
			g := s.mk(h)
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				g.Reset()
				g.Update(data)
				g.Lengths(0, uint64(len(data)))
			}
		})
	}
}

// BenchmarkAblationPipelined quantifies chunked encrypt/transfer overlap
// (the transparent chunked rendezvous, internal/encmpi/chunked.go) against
// the monolithic seal-whole-message Encrypted_Send for a 4MB message with
// CryptoPP-class crypto on InfiniBand.
func BenchmarkAblationPipelined(b *testing.B) {
	p, err := costmodel.Lookup("cryptopp", costmodel.MVAPICH, 256)
	if err != nil {
		b.Fatal(err)
	}
	const size = 4 << 20
	run := func(pipelined bool) time.Duration {
		spec := PaperTestbed(2, 2)
		var elapsed time.Duration
		_, err := RunSim(spec, IB40G(), func(c *Comm) {
			threshold := -1 // chunking off: one frame, sealed whole
			if pipelined {
				threshold = 0 // the default threshold and chunk size
			}
			e := EncryptWith(c, enc.NewModelEngine(p), WithPipelineThreshold(threshold))
			switch c.Rank() {
			case 0:
				start := c.Proc().Now()
				if err := e.Send(1, 0, Synthetic(size)); err != nil {
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
				e.Send(0, 9, Synthetic(1))
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		return elapsed
	}
	var mono, pipe time.Duration
	for i := 0; i < b.N; i++ {
		mono = run(false)
		pipe = run(true)
	}
	b.ReportMetric(mono.Seconds()*1e6, "monolithic-µs")
	b.ReportMetric(pipe.Seconds()*1e6, "pipelined-µs")
}

// BenchmarkPingPong1MiBTCP is the real-transport counterpart of the ablation
// above, and what makes the ROADMAP item-1 finding reproducible: a 1 MiB
// ping-pong over loopback TCP through the facade — a session and the
// unencrypted wrapper, each with the chunked rendezvous at its default
// threshold and switched off — reporting the one-way time. On a 2-vCPU box
// chunking buys the session path a few percent and costs the unencrypted
// wrapper its per-chunk protocol work (EXPERIMENTS.md, "Eager record path").
func BenchmarkPingPong1MiBTCP(b *testing.B) {
	const size, warm = 1 << 20, 5
	key := bytes.Repeat([]byte{0x42}, 32)
	for _, engine := range []string{"session", "unencrypted"} {
		for _, mode := range []struct {
			name      string
			threshold int
		}{{"chunked", 0}, {"whole", -1}} {
			b.Run(engine+"/"+mode.name, func(b *testing.B) {
				var elapsed time.Duration
				err := RunTCP(2, func(c *Comm) {
					e := EncryptWith(c, Unencrypted(), WithPipelineThreshold(mode.threshold))
					if engine == "session" {
						s, err := NewSession(key)
						if err == nil {
							e, err = s.Attach(c, WithPipelineThreshold(mode.threshold))
						}
						if err != nil {
							panic(err)
						}
					}
					payload := Bytes(make([]byte, size))
					peer := 1 - c.Rank()
					var start time.Time
					for i := 0; i < warm+b.N; i++ {
						if i == warm {
							start = time.Now()
						}
						if c.Rank() == 0 {
							if err := e.Send(peer, 0, payload); err != nil {
								panic(err)
							}
						}
						got, _, err := e.Recv(peer, 0)
						if err != nil {
							panic(err)
						}
						got.Release()
						if c.Rank() == 1 {
							if err := e.Send(peer, 0, payload); err != nil {
								panic(err)
							}
						}
					}
					if c.Rank() == 0 {
						elapsed = time.Since(start)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(elapsed.Seconds()*1e6/float64(2*b.N), "oneway-µs")
			})
		}
	}
}

// BenchmarkAblationBcastPipelined quantifies the segmented pipelined
// broadcast against the monolithic encrypted Bcast at 1 MiB on the
// simulated cluster: sealing chunk k+1 and relaying chunk k overlap down
// the binomial tree, so slow crypto no longer serializes with every hop.
func BenchmarkAblationBcastPipelined(b *testing.B) {
	p, err := costmodel.Lookup("cryptopp", costmodel.MVAPICH, 256)
	if err != nil {
		b.Fatal(err)
	}
	const size = 1 << 20
	mk := func(int) Engine { return enc.NewModelEngine(p) }
	var plain, piped time.Duration
	for i := 0; i < b.N; i++ {
		for _, op := range []osu.CollectiveOp{osu.OpBcast, osu.OpBcastPipelined} {
			res, err := osu.Collective(simnet.IB40G(), mk, op, 8, 2, size, 2)
			if err != nil {
				b.Fatal(err)
			}
			if op == osu.OpBcast {
				plain = res.MeanLat
			} else {
				piped = res.MeanLat
			}
		}
	}
	b.ReportMetric(plain.Seconds()*1e6, "bcast-µs")
	b.ReportMetric(piped.Seconds()*1e6, "bcastpipe-µs")
}

// BenchmarkRealParallelSeal measures actual multi-core AES-GCM sealing via
// the ParallelEngine — the paper's §V-C proposal with real cryptography
// rather than a model.
func BenchmarkRealParallelSeal(b *testing.B) {
	key := bytes.Repeat([]byte{6}, 32)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			codec, err := codecs.New("aessoft", key) // CPU-bound tier shows scaling
			if err != nil {
				b.Fatal(err)
			}
			eng := enc.NewParallelEngine(codec, aead.NewCounterNonce(1), workers)
			pt := Bytes(make([]byte, 4<<20))
			b.SetBytes(4 << 20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Seal(nil, pt)
			}
		})
	}
}

// BenchmarkAblationEagerThreshold sweeps the rendezvous switch point
// (DESIGN.md §5.2): where the +28-byte expansion and protocol copies land
// depends on it.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	p, err := costmodel.Lookup("boringssl", costmodel.GCC485, 256)
	if err != nil {
		b.Fatal(err)
	}
	for _, threshold := range []int{16 << 10, 64 << 10, 256 << 10} {
		threshold := threshold
		b.Run(fmt.Sprintf("eager%dK", threshold>>10), func(b *testing.B) {
			cfg := simnet.Eth10G()
			cfg.EagerThreshold = threshold
			mk := func(int) Engine { return enc.NewModelEngine(p) }
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := osu.PingPong(cfg, mk, 128<<10, 10)
				if err != nil {
					b.Fatal(err)
				}
				last = res.Throughput
			}
			b.ReportMetric(last, "MB/s")
		})
	}
}
