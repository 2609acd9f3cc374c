package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// runWithin fails the test instead of hanging it if Run does not return.
func runWithin(t *testing.T, e *Engine, d time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- e.Run() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatal("Run did not return")
		return nil
	}
}

// TestSelfResumeDoesNotSwitch: a proc whose Advance is the next event
// resumes itself inside yield. With its suspend function swapped for nil, any
// switch back to Run's caller would panic.
func TestSelfResumeDoesNotSwitch(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Spawn("solo", func(p *Proc) {
		p.suspend = nil
		for i := 0; i < 100; i++ {
			p.Advance(time.Microsecond)
			e.Schedule(0, func() { ticks++ }) // plain events in between are driven too
		}
	})
	if err := runWithin(t, e, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 100*time.Microsecond || ticks != 100 || e.Executed() != 201 {
		t.Errorf("now=%v ticks=%d executed=%d", e.Now(), ticks, e.Executed())
	}
}

// TestFinishedProcDrivesIntoDeadlock: the last proc to run finishes its body
// while others are parked; its goroutine drains the queue and the deadlock
// is still reported, sorted by name.
func TestFinishedProcDrivesIntoDeadlock(t *testing.T) {
	e := NewEngine()
	e.Spawn("b", func(p *Proc) { p.Park() })
	e.Spawn("a", func(p *Proc) { p.Park() })
	e.Spawn("c", func(p *Proc) { p.Advance(time.Millisecond) })
	err := runWithin(t, e, 5*time.Second)
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if !slices.Equal(d.Parked, []string{"a", "b"}) || d.Time != time.Millisecond {
		t.Errorf("deadlock = %+v", d)
	}
	if again := e.Run(); again != err {
		t.Errorf("second Run = %v, want the latched %v", again, err)
	}
}

// TestMaxEventsInsideProcLoop: the limit trips while a proc, not Run's
// caller, is driving the loop; Run must still return the error.
func TestMaxEventsInsideProcLoop(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 100
	e.Spawn("parked", func(p *Proc) { p.Park() })
	e.Spawn("spinner", func(p *Proc) {
		for {
			p.Advance(time.Nanosecond)
		}
	})
	e.Spawn("pair", func(p *Proc) {
		for {
			p.Advance(time.Nanosecond)
		}
	})
	err := runWithin(t, e, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "MaxEvents=100") {
		t.Fatalf("err = %v", err)
	}
	if e.Executed() != 101 {
		t.Errorf("executed = %d", e.Executed())
	}
}

// TestSpawnFromProcKeepsOrder: a child spawned mid-body starts at the
// current time in (time, seq) order with the events scheduled around it,
// and only once the spawning proc gives the token up.
func TestSpawnFromProcKeepsOrder(t *testing.T) {
	e := NewEngine()
	var trace []string
	mark := func(s string) func() { return func() { trace = append(trace, s) } }
	e.Spawn("parent", func(p *Proc) {
		p.Advance(2 * time.Millisecond)
		e.Schedule(time.Millisecond, mark("later"))
		e.Schedule(0, mark("before"))
		e.Spawn("child", func(c *Proc) {
			mark("child@" + c.Now().String())()
			c.Advance(time.Millisecond) // ties with "later", scheduled after it
			mark("child-woke")()
		})
		e.Schedule(0, mark("after"))
		mark("parent-continues")()
		p.Advance(3 * time.Millisecond)
		mark("parent-woke")()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"parent-continues", "before", "child@2ms", "after", "later", "child-woke", "parent-woke"}
	if !slices.Equal(trace, want) {
		t.Errorf("trace = %v\n want %v", trace, want)
	}
}

// TestUnparkFromEventBeforePark: a permit deposited by a plain event while
// the proc is runnable makes the later Park return without yielding.
func TestUnparkFromEventBeforePark(t *testing.T) {
	e := NewEngine()
	var p *Proc
	var before, after uint64
	p = e.Spawn("p", func(p *Proc) {
		p.Advance(2 * time.Millisecond)
		before = e.Executed()
		p.Park()
		after = e.Executed()
	})
	e.Schedule(time.Millisecond, func() { p.Unpark() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("Park with a permit ran %d events", after-before)
	}
}

// TestZeroDelayLaneTieBreak: at equal times the zero-delay lane and the
// heap merge by sequence number, so heap events older than a zero-delay
// event run before it instead of being overtaken.
func TestZeroDelayLaneTieBreak(t *testing.T) {
	e := NewEngine()
	var got []string
	mark := func(s string) func() { return func() { got = append(got, s) } }
	e.Schedule(time.Millisecond, func() {
		got = append(got, "x")
		e.Schedule(0, mark("z")) // lane, newest
	})
	e.Schedule(time.Millisecond, mark("y")) // heap, same time as z, older
	e.Schedule(0, func() {
		got = append(got, "a")
		e.Schedule(0, mark("b"))                  // lane at t=0
		e.ScheduleAt(time.Millisecond, mark("w")) // heap, older than z
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "x", "y", "w", "z"}
	if !slices.Equal(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

// TestAbnormalEndLeaksNoGoroutines: after a deadlock or a MaxEvents error
// every blocked proc is unwound — its deferred calls run, one proc at a
// time, before Run returns — and its goroutine exits.
func TestAbnormalEndLeaksNoGoroutines(t *testing.T) {
	const procs = 50
	baseline := runtime.NumGoroutine()
	for _, limit := range []uint64{0, 500} {
		e := NewEngine()
		e.MaxEvents = limit
		unwound, recovered := 0, 0
		for i := 0; i < procs; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				defer func() {
					if recover() != nil {
						recovered++
					}
					unwound++ // unsynchronized: -race proves unwinding is serial
					p.Unpark()
					p.Park() // blocking again while unwinding must not hang
				}()
				for limit > 0 {
					p.Advance(time.Microsecond)
				}
				p.Park()
			})
		}
		if err := runWithin(t, e, 5*time.Second); err == nil {
			t.Fatal("expected an error")
		}
		if unwound != procs || recovered != 0 {
			t.Errorf("MaxEvents=%d: %d of %d procs unwound, %d saw a panic", limit, unwound, procs, recovered)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the failed runs", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
