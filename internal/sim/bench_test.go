package sim

import (
	"runtime"
	"testing"
	"time"
)

// benchEngine runs an engine built for b.N rounds and reports the cost per
// executed event, which is what the simulator's users pay for.
func benchEngine(b *testing.B, build func(e *Engine, rounds int)) {
	e := NewEngine()
	build(e, b.N)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	events := float64(e.Executed())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/events, "allocs/event")
}

// BenchmarkEngineSelfAdvance: one proc advancing alone — every resumption is
// the driving proc's own, the shape of a modeled seal or open.
func BenchmarkEngineSelfAdvance(b *testing.B) {
	benchEngine(b, func(e *Engine, rounds int) {
		e.Spawn("solo", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Advance(time.Microsecond)
			}
		})
	})
}

// BenchmarkEngineParkUnparkPair: two procs waking each other in turn — every
// event is a zero-delay resumption of the other goroutine.
func BenchmarkEngineParkUnparkPair(b *testing.B) {
	benchEngine(b, func(e *Engine, rounds int) {
		var ping, pong *Proc
		ping = e.Spawn("ping", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				pong.Unpark()
				p.Park()
			}
		})
		pong = e.Spawn("pong", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Park()
				ping.Unpark()
			}
		})
	})
}

// BenchmarkEngineFanout64: one proc wakes 64 parked procs per round, each of
// which advances for a different time and parks again — the shape of a
// 64-rank collective step (lane burst, then a 64-deep heap).
func BenchmarkEngineFanout64(b *testing.B) {
	benchEngine(b, func(e *Engine, rounds int) {
		workers := make([]*Proc, 64)
		for i := range workers {
			work := time.Duration(1+i%7) * time.Microsecond
			workers[i] = e.Spawn("worker", func(p *Proc) {
				for r := 0; r < rounds; r++ {
					p.Park()
					p.Advance(work)
				}
			})
		}
		e.Spawn("root", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				for _, w := range workers {
					w.Unpark()
				}
				p.Advance(10 * time.Microsecond)
			}
		})
	})
}

// TestResumeEventsDoNotAllocate gates the event representation: Advance
// (heap, self-resume) and an Unpark/Park round trip between two procs (lane,
// coroutine switches) must not allocate — no *event, no closure.
func TestResumeEventsDoNotAllocate(t *testing.T) {
	e := NewEngine()
	var advance, pingPong float64
	var echo *Proc
	stop := false
	main := e.Spawn("main", func(p *Proc) {
		advance = testing.AllocsPerRun(200, func() { p.Advance(time.Microsecond) })
		pingPong = testing.AllocsPerRun(200, func() {
			echo.Unpark()
			p.Park()
		})
		stop = true
		echo.Unpark()
	})
	echo = e.Spawn("echo", func(p *Proc) {
		for p.Park(); !stop; p.Park() {
			main.Unpark()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if advance != 0 || pingPong != 0 {
		t.Errorf("allocs per Advance = %v, per Unpark/Park round trip = %v, want 0", advance, pingPong)
	}
}
