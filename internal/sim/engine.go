// Package sim is a deterministic discrete-event simulation engine with
// process-oriented semantics: simulated processes are coroutines (iter.Pull),
// so exactly one goroutine at a time — a proc, or Run's caller — holds the
// execution token, and runs are sequential, reproducible, and need no
// wall-clock sleeps. There is no engine goroutine: the token holder runs the
// event loop (drive) until an event resumes a proc. A proc that resumes itself
// just carries on; otherwise the token goes to the next proc through Run's
// caller, by direct coroutine switches that bypass the Go scheduler — no run
// queue, no thread wake-up, the same cost at any GOMAXPROCS.
// Virtual time advances only through scheduled events.
//
// This engine, together with the network fabric in internal/simnet, is the
// stand-in for the paper's 8-node Xeon cluster: it lets the 64-rank NAS and
// collective experiments run on a laptop while preserving the timing
// structure (overlap, contention, serialization) that the paper's overhead
// numbers depend on.
package sim

import (
	"fmt"
	"sort"
	"time"
)

// event is a scheduled callback or, when proc is set, the resumption of that
// proc: an event kind rather than a closure, so that Advance, Park/Unpark and
// Spawn schedule without allocating.
type event struct {
	at   time.Duration
	seq  uint64
	fn   func()
	proc *Proc
}

// before orders events by (time, insertion sequence) for determinism.
func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Engine runs events in virtual-time order.
type Engine struct {
	now time.Duration
	seq uint64

	// timed is a binary min-heap of the events scheduled with a positive
	// delay; lane[laneHead:] holds the zero-delay ones in scheduling order.
	// now never decreases and seq always grows, so the lane is sorted by
	// (at, seq) as it stands and pop merges the two by that key.
	timed    []event
	lane     []event
	laneHead int

	err error // latched: the engine is finished

	procs    []*Proc
	liveProc int

	// MaxEvents guards against runaway simulations; 0 means no limit.
	MaxEvents uint64
	executed  uint64
}

// NewEngine creates an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule runs fn after delay (which may be zero; negative delays are
// clamped to zero). Events at equal times run in scheduling order.
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	e.schedule(delay, fn, nil)
}

// ScheduleAt runs fn at absolute virtual time at (clamped to now).
func (e *Engine) ScheduleAt(at time.Duration, fn func()) {
	e.schedule(at-e.now, fn, nil)
}

func (e *Engine) schedule(delay time.Duration, fn func(), proc *Proc) {
	e.seq++
	if delay <= 0 {
		e.lane = append(e.lane, event{at: e.now, seq: e.seq, fn: fn, proc: proc})
		return
	}
	h := append(e.timed, event{at: e.now + delay, seq: e.seq, fn: fn, proc: proc})
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.timed = h
}

// pending reports whether any event is queued.
func (e *Engine) pending() bool { return e.laneHead < len(e.lane) || len(e.timed) > 0 }

// pop removes and returns the earliest pending event by (at, seq).
func (e *Engine) pop() event {
	h := e.timed
	if e.laneHead < len(e.lane) && (len(h) == 0 || e.lane[e.laneHead].before(&h[0])) {
		ev := e.lane[e.laneHead]
		e.lane[e.laneHead] = event{}
		if e.laneHead++; e.laneHead == len(e.lane) {
			e.lane, e.laneHead = e.lane[:0], 0
		}
		return ev
	}
	ev, n := h[0], len(h)-1
	h[0], h[n] = h[n], event{}
	for i := 0; ; {
		child := 2*i + 1
		if child+1 < n && h[child+1].before(&h[child]) {
			child++
		}
		if child >= n || !h[child].before(&h[i]) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	e.timed = h[:n]
	return ev
}

// drive runs events on the calling goroutine, which must hold the token,
// until one resumes a proc, and returns that proc. It returns nil when the
// run is over: the queue has drained or an error is latched.
func (e *Engine) drive() *Proc {
	for e.err == nil && e.pending() {
		ev := e.pop()
		if ev.at < e.now {
			e.err = fmt.Errorf("sim: time went backwards (%v < %v)", ev.at, e.now)
			break
		}
		e.now = ev.at
		e.executed++
		if e.MaxEvents > 0 && e.executed > e.MaxEvents {
			e.err = fmt.Errorf("sim: exceeded MaxEvents=%d at t=%v", e.MaxEvents, e.now)
			break
		}
		if ev.proc != nil {
			return ev.proc
		}
		ev.fn()
	}
	return nil
}

// DeadlockError reports a simulation that stopped with live processes but no
// runnable events — the virtual-time analogue of an MPI hang.
type DeadlockError struct {
	Time   time.Duration
	Parked []string
}

// Error implements error.
func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v with %d parked processes %v",
		d.Time, len(d.Parked), d.Parked)
}

// Run executes events until the queue is empty. It returns a *DeadlockError
// if processes are still alive when the queue drains, and an error if
// MaxEvents is exceeded. Either error finishes the engine: every blocked proc
// is unwound with runtime.Goexit (its deferred calls run) before Run returns.
func (e *Engine) Run() error {
	// Run's caller switches into each resumed proc in turn. A proc gives the
	// token back naming the proc its own drive found to resume next, or by
	// finishing, and then the caller drives.
	for p := e.drive(); p != nil; {
		next, blocked := p.enter()
		if !blocked {
			next = e.drive()
		}
		p = next
	}
	if e.err == nil && e.liveProc > 0 {
		var parked []string
		for _, p := range e.procs {
			if !p.done {
				parked = append(parked, p.name)
			}
		}
		sort.Strings(parked)
		e.err = &DeadlockError{Time: e.now, Parked: parked}
	}
	if e.err != nil {
		// Every started, unfinished proc is blocked in yield and exits when
		// stopped. One at a time: procs never run concurrently.
		for _, p := range e.procs {
			if p.stop != nil && !p.done {
				p.unwind()
			}
		}
	}
	return e.err
}

// Executed reports how many events have run.
func (e *Engine) Executed() uint64 { return e.executed }
