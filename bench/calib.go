package main

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// calibration is the machine, measured in the same run as the workload: read
// it first when a number moves on both commits, and compare absolute MB/s
// across runs as ratios to it.
type calibration struct {
	// CopyMBps is copy() of 1 MiB, cache-resident like the payloads — not a
	// DRAM figure.
	CopyMBps float64 `json:"copy_MBps"`
	// GCMMBps is stdlib crypto/cipher AES-256-GCM sealing 256 KiB.
	GCMMBps float64 `json:"gcm_MBps"`
	// LoopbackUs is one op's one-way wire volume over a raw loopback
	// net.Conn, half of an echo round trip.
	LoopbackUs float64 `json:"loopback_us"`
	// HandoffNs is one goroutine-to-goroutine handoff over an unbuffered
	// channel, half of a round trip.
	HandoffNs float64 `json:"handoff_ns"`
}

// timeMedian runs fn reps times and returns the median duration in seconds.
func timeMedian(reps int, fn func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		t := time.Now()
		fn()
		d[i] = time.Since(t).Seconds()
	}
	return median(d)
}

// timeBest runs fn reps/4 times unmeasured, then reps times, and returns the
// shortest duration in seconds: what the machine can do, which a scheduling
// blip during a calibration of a few milliseconds does not move.
func timeBest(reps int, fn func()) float64 {
	for i := 0; i < reps/4; i++ {
		fn()
	}
	best := math.Inf(1)
	for i := 0; i < reps; i++ {
		t := time.Now()
		fn()
		best = min(best, time.Since(t).Seconds())
	}
	return best
}

// calibrate measures the machine; wireBytes sizes the loopback echo.
func calibrate(wireBytes int) (calibration, error) {
	var c calibration

	src, dst := make([]byte, 1<<20), make([]byte, 1<<20)
	for i := range src {
		src[i] = byte(i) // fresh pages all alias the zero page until written
	}
	c.CopyMBps = float64(len(src)) / timeBest(200, func() { copy(dst, src) }) / 1e6

	block, err := aes.NewCipher(make([]byte, 32))
	if err != nil {
		return c, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return c, err
	}
	pt, nonce := src[:256<<10], make([]byte, gcm.NonceSize())
	out := make([]byte, 0, len(pt)+gcm.Overhead())
	c.GCMMBps = float64(len(pt)) / timeBest(200, func() { out = gcm.Seal(out[:0], nonce, pt, nil) }) / 1e6

	ping, pong := make(chan struct{}), make(chan struct{})
	const handoffs = 20_000
	go func() {
		for range ping {
			pong <- struct{}{}
		}
	}()
	c.HandoffNs = timeBest(12, func() {
		for i := 0; i < handoffs; i++ {
			ping <- struct{}{}
			<-pong
		}
	}) * 1e9 / handoffs / 2
	close(ping)

	// A large echo settles into one of several regimes per connection
	// (socket buffer autotuning), so the best of three connections is kept.
	c.LoopbackUs = math.Inf(1)
	for i := 0; i < 3; i++ {
		us, err := loopbackUs(wireBytes)
		if err != nil {
			return c, err
		}
		c.LoopbackUs = min(c.LoopbackUs, us)
	}
	return c, nil
}

// loopbackUs echoes n bytes over one raw TCP connection on the loopback
// interface and returns the best one-way time.
func loopbackUs(n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1) // the echo goroutine's single result
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, n)
		for {
			if _, err := io.ReadFull(conn, buf); err != nil {
				if err == io.EOF {
					err = nil
				}
				echoed <- err
				return
			}
			if _, err := conn.Write(buf); err != nil {
				echoed <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, n)
	reps := max(50, min(2000, (64<<20)/n))
	var ioErr error
	rtt := timeBest(reps, func() {
		if _, err := conn.Write(buf); err != nil && ioErr == nil {
			ioErr = err
		}
		if _, err := io.ReadFull(conn, buf); err != nil && ioErr == nil {
			ioErr = err
		}
	})
	conn.Close()
	if err := <-echoed; err != nil && ioErr == nil {
		ioErr = err
	}
	if ioErr != nil {
		return 0, fmt.Errorf("loopback echo: %w", ioErr)
	}
	return rtt * 1e6 / 2, nil
}

// drift returns a warning for each of the two pure machine-speed values that
// moved by more than 10 % between the start and the end of a run. LoopbackUs
// and HandoffNs are left out because they also depend on the state the
// workload leaves the Go scheduler in: a 1 MiB echo settles into one of two
// regimes per connection, a factor 1.9 apart, and a handoff is 15 % slower
// after the 64-rank simulation than before it, on every healthy run.
func (c calibration) drift(end calibration) []string {
	var warn []string
	check := func(name string, a, b float64) {
		if a > 0 && (b > a*1.1 || b < a/1.1) {
			warn = append(warn, fmt.Sprintf("calib.%s drifted %+.1f%% during the run (%.4g -> %.4g): the machine was not steady", name, (b/a-1)*100, a, b))
		}
	}
	check("copy_MBps", c.CopyMBps, end.CopyMBps)
	check("gcm_MBps", c.GCMMBps, end.GCMMBps)
	return warn
}
