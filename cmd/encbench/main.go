// Command encbench is the encryption-decryption benchmark (paper Figs. 2
// and 9). By default it prints the calibrated library curves used by the
// simulator; with -real it measures the repository's actual Go AEAD tiers on
// the host CPU using the paper's methodology (repeated enc+dec of each
// buffer size until the standard deviation is within 5% of the mean).
//
// With -par it benchmarks the chunked parallel engine against the serial
// real engine, for one large message (chunk parallelism) and for many
// concurrent small messages (cross-message parallelism).
//
//	encbench [-net eth|ib] [-real] [-key 128|256]
//	         [-par] [-workers N]
//	         [-stats] [-statsfmt text|json|prom]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"encmpi"
)

var benchSizes = []int{16, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 2 << 20, 4 << 20}

func main() {
	net := flag.String("net", "eth", "network side of the paper: eth (gcc 4.8.5) or ib (MVAPICH toolchain)")
	real := flag.Bool("real", false, "measure the real Go AEAD backends instead of printing model curves")
	keyBits := flag.Int("key", 256, "AES key length (128 or 256)")
	par := flag.Bool("par", false, "benchmark the parallel engine against the serial real engine")
	workers := flag.Int("workers", 0, "with -par: worker count (0 = GOMAXPROCS)")
	stats := flag.Bool("stats", false, "with -real: print crypto accounting (counts, bytes, latency) after the sweep")
	statsFmt := flag.String("statsfmt", "text", "metrics format: text, json, or prom")
	flag.Parse()

	if *par {
		if err := measureParallel(*keyBits, *workers); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *real {
		if err := measureReal(*keyBits, *stats, *statsFmt); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *stats {
		fmt.Fprintln(os.Stderr, "note: -stats accounts real seal/open work; combine it with -real")
	}

	variant := encmpi.GCC485
	if *net == "ib" {
		variant = encmpi.MVAPICH
	}
	tb := encmpi.NewTable(
		fmt.Sprintf("AES-GCM-%d enc-dec throughput (MB/s), %s toolchain (model curves)", *keyBits, variant),
		append([]string{"Size"}, encmpi.Libraries()...)...)
	for _, s := range benchSizes {
		row := []string{sizeLabel(s)}
		for _, lib := range encmpi.Libraries() {
			p, err := encmpi.LookupLibrary(lib, variant, *keyBits)
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			row = append(row, encmpi.MBps(p.Curve.ThroughputMBps(s)))
		}
		tb.Add(row...)
	}
	fmt.Print(tb)
}

// measureReal times the actual Go codecs, paper-style: the metric is
// size / (t_enc + t_dec), at least 5 repetitions, stddev within 5% of mean.
func measureReal(keyBits int, stats bool, statsFmt string) error {
	key := bytes.Repeat([]byte{0x42}, keyBits/8)
	tb := encmpi.NewTable(
		fmt.Sprintf("Measured enc-dec throughput (MB/s) of the Go AEAD tiers, AES-%d, this host", keyBits),
		append([]string{"Size"}, encmpi.GCMCodecNames()...)...)

	// With -stats every timed seal/open is also charged to a one-rank
	// registry, giving counts, byte totals, and latency histograms.
	var rk *encmpi.RankMetrics
	var reg *encmpi.Registry
	if stats {
		reg = encmpi.NewRegistry(1)
		rk = reg.Rank(0)
	}

	for _, size := range benchSizes {
		row := []string{sizeLabel(size)}
		pt := make([]byte, size)
		for _, name := range encmpi.GCMCodecNames() {
			codec, err := encmpi.NewCodec(name, key)
			if err != nil {
				return err
			}
			nonce := make([]byte, encmpi.NonceSize)
			ct := codec.Seal(nil, nonce, pt)
			out := make([]byte, 0, size)

			// Pick an inner-loop count that costs ~20ms per measurement.
			iters := 1
			start := time.Now()
			ct = codec.Seal(ct[:0], nonce, pt)
			if _, err := codec.Open(out[:0], nonce, ct); err != nil {
				return err
			}
			per := time.Since(start)
			if per > 0 {
				iters = int(20*time.Millisecond/per) + 1
			}

			sample, err := encmpi.AdaptiveRun(encmpi.EncDefaults(), func() float64 {
				t0 := time.Now()
				for i := 0; i < iters; i++ {
					ct = codec.Seal(ct[:0], nonce, pt)
					if _, err := codec.Open(out[:0], nonce, ct); err != nil {
						panic(err)
					}
				}
				elapsed := time.Since(t0).Seconds() / float64(iters)
				if rk != nil {
					// One enc+dec pair per iteration; split the measured
					// time evenly between the two directions.
					half := int64(time.Duration(elapsed*float64(time.Second)) / 2)
					rk.Seal(size, len(ct), half)
					rk.Open(len(ct), size, half)
				}
				return float64(size) / elapsed / 1e6 // MB/s for one enc+dec
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "warning: %s @%d: %v\n", name, size, err)
			}
			row = append(row, encmpi.MBps(sample.Mean))
		}
		tb.Add(row...)
	}
	tb.Note("metric matches the paper's Fig 2: size/(t_enc+t_dec); 5%% stddev stopping rule")
	// With a machine metrics format, stdout carries only the snapshot so it
	// can be piped straight into a parser; the table moves to stderr.
	machine := reg != nil && statsFmt != "text" && statsFmt != ""
	human := os.Stdout
	if machine {
		human = os.Stderr
	}
	fmt.Fprint(human, tb)

	if reg != nil {
		if !machine {
			fmt.Println()
		}
		if err := encmpi.WriteSnapshot(os.Stdout, reg.Snapshot(), statsFmt); err != nil {
			return err
		}
	}
	return nil
}

// measureParallel compares the chunked parallel engine (§V-C: chunks sealed
// concurrently on the shared crypto worker pool) against the serial real
// engine under the same codec and key. The single-message rows show
// chunk-level parallelism on one large buffer; the final row shows aggregate
// throughput of 16 goroutines each sealing and opening independent 4 KiB
// messages — the concurrent-small-message regime, where both engines run
// inline on their callers.
func measureParallel(keyBits, workers int) error {
	key := bytes.Repeat([]byte{0x42}, keyBits/8)
	mk := func(kind string) (encmpi.Engine, error) {
		return encmpi.NewEngine(encmpi.EngineSpec{Kind: kind, Codec: "aesstd", Key: key, Workers: workers})
	}
	tb := encmpi.NewTable(
		fmt.Sprintf("Parallel AES-GCM-%d engine: seal+open throughput (MB/s), parallel vs serial real engine", keyBits),
		"Workload", "Parallel", "Real", "Gain")

	throughput := func(eng encmpi.Engine, size, conc int) (float64, error) {
		var payload []byte
		if size > 0 {
			payload = bytes.Repeat([]byte{0xAB}, size)
		}
		sample, err := encmpi.AdaptiveRun(encmpi.EncDefaults(), func() float64 {
			const itersPer = 8
			start := time.Now()
			var wg sync.WaitGroup
			for g := 0; g < conc; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < itersPer; i++ {
						wire := eng.Seal(nil, encmpi.Bytes(payload))
						plain, err := eng.Open(nil, wire)
						if err != nil {
							panic(err)
						}
						plain.Release()
						wire.Release()
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start).Seconds()
			return float64(size) * itersPer * float64(conc) / elapsed / 1e6
		})
		return sample.Mean, err
	}

	type workload struct {
		label string
		size  int
		conc  int
	}
	cases := []workload{
		{"256KB x1", 256 << 10, 1},
		{"1MB x1", 1 << 20, 1},
		{"4MB x1", 4 << 20, 1},
		{"4KB x16 concurrent", 4 << 10, 16},
	}
	for _, w := range cases {
		var mbps [2]float64
		for i, kind := range []string{"parallel", "real"} {
			eng, err := mk(kind)
			if err != nil {
				return err
			}
			if mbps[i], err = throughput(eng, w.size, w.conc); err != nil {
				fmt.Fprintf(os.Stderr, "warning: %s %s: %v\n", w.label, kind, err)
			}
		}
		gain := "n/a"
		if mbps[1] > 0 {
			gain = encmpi.Pct(mbps[0]/mbps[1] - 1)
		}
		tb.Add(w.label, encmpi.MBps(mbps[0]), encmpi.MBps(mbps[1]), gain)
	}
	tb.Note("parallel = chunks sealed concurrently on the shared cryptopool; real = one serial AES-GCM pass per message")
	fmt.Print(tb)
	return nil
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
