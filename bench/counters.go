package main

import (
	"fmt"
	"runtime"

	"encmpi"
)

// The counters the per-layer metrics are built from: a slice of the metrics
// registry (the one WithMetrics already exports) and of runtime.MemStats.
const (
	cSeals = iota
	cOpens
	cAuthFailures
	cPlainSealed
	cWireSealed
	cPlainOpened
	cWireOpened
	cSealsInPlace
	cOpensInPlace
	cChunksSent
	cMsgsSent
	cBytesSent
	cWaitNanosRank0
	cStrays
	cFlushes
	cInlineFlushes
	cFrames
	cWriteErrors
	cRingAcquired
	cRingRetired
	cRingFallbacks
	cMallocs
	cAllocBytes
	cNumGC
	numCounters
)

// counters is one reading; reading twice and subtracting charges exactly the
// ops in between.
type counters [numCounters]float64

// readCounters snapshots reg (which may be nil) and, when mem is set, the
// allocator. ReadMemStats stops the world, so callers read only between
// halves, with both ranks quiescent.
func readCounters(reg *encmpi.Registry, mem bool) counters {
	var c counters
	if reg != nil {
		s := reg.Snapshot()
		cr, tr := s.Total.Crypto, s.Total.Transport
		for i, v := range map[int]uint64{
			cSeals: cr.Seals, cOpens: cr.Opens, cAuthFailures: cr.AuthFailures,
			cPlainSealed: cr.PlainSealed, cWireSealed: cr.WireSealed,
			cPlainOpened: cr.PlainOpened, cWireOpened: cr.WireOpened,
			cSealsInPlace: cr.SealsInPlace, cOpensInPlace: cr.OpensInPlace,
			cChunksSent: s.Total.Pipeline.ChunksSent,
			cMsgsSent:   tr.MsgsSent, cBytesSent: tr.BytesSent,
			cStrays:  s.Total.Strays + s.UnattributedStrays,
			cFlushes: s.Wire.Flushes, cInlineFlushes: s.Wire.InlineFlushes,
			cFrames: s.Wire.Frames, cWriteErrors: s.Wire.WriteErrors,
			cRingAcquired: s.Ring.Acquired, cRingRetired: s.Ring.Retired, cRingFallbacks: s.Ring.Fallbacks,
		} {
			c[i] = float64(v)
		}
		if len(s.Ranks) > 0 {
			c[cWaitNanosRank0] = float64(s.Ranks[0].WaitNanos)
		}
	}
	if mem {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		c[cMallocs], c[cAllocBytes], c[cNumGC] = float64(m.Mallocs), float64(m.TotalAlloc), float64(m.NumGC)
	}
	return c
}

// add accumulates b - a into c.
func (c *counters) add(a, b counters) {
	for i := range c {
		c[i] += b[i] - a[i]
	}
}

// invariants asserts, on the encrypted halves of a traced pass, the AES-GCM
// byte identity the paper's whole cost model rests on (every sealed record is
// its plaintext plus 28 bytes), and that nothing was rejected, stray, or
// leaked from a ring. It returns one line per violation.
func (c counters) invariants() []string {
	var bad []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	check(c[cWireSealed] == c[cPlainSealed]+encmpi.Overhead*c[cSeals],
		"seal bytes: wire %.0f != plain %.0f + 28 x %.0f seals", c[cWireSealed], c[cPlainSealed], c[cSeals])
	check(c[cWireOpened] == c[cPlainOpened]+encmpi.Overhead*c[cOpens],
		"open bytes: wire %.0f != plain %.0f + 28 x %.0f opens", c[cWireOpened], c[cPlainOpened], c[cOpens])
	check(c[cSeals] > 0 && c[cOpens] > 0, "the encrypted halves sealed %.0f and opened %.0f records", c[cSeals], c[cOpens])
	check(c[cAuthFailures] == 0, "%.0f authentication failures", c[cAuthFailures])
	check(c[cStrays] == 0, "%.0f stray messages", c[cStrays])
	check(c[cWriteErrors] == 0, "%.0f wire write errors", c[cWriteErrors])
	check(c[cRingAcquired] == c[cRingRetired], "ring slots acquired %.0f != retired %.0f", c[cRingAcquired], c[cRingRetired])
	return bad
}
