//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime"
	"time"

	"encmpi/internal/sched"
)

// Proc is a simulated process. It implements sched.Proc against virtual
// time: the proc's body is a coroutine that runs only while it holds the
// engine's execution token, and every blocking operation gives the token up.
type Proc struct {
	eng  *Engine
	name string
	body func(p *Proc)
	// resume switches from Run's caller into the body, suspend switches
	// back, and stop makes a blocked suspend return false: the three ends of
	// the iter.Pull coroutine that the proc's first resumption starts.
	resume  func() (*Proc, bool)
	suspend func(next *Proc) bool
	stop    func()

	// parked is true while the proc is blocked in Park waiting for Unpark.
	parked bool
	// permit records an Unpark that arrived while the proc was runnable.
	permit bool
	// done latches when the proc body returns.
	done bool
}

// Spawn creates a process and schedules its body to start at the current
// virtual time. The body runs on its own goroutine, started by that event,
// but only while it holds the token, so simulation remains deterministic.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, body: body}
	e.procs = append(e.procs, p)
	e.liveProc++
	e.schedule(0, nil, p)
	return p
}

// enter runs p on the token of Run's caller until p gives it back: from
// yield, naming the proc to resume next (nil when the run is over), or, with
// blocked false, because its body has returned.
func (p *Proc) enter() (next *Proc, blocked bool) {
	if p.resume == nil {
		p.resume, p.stop = iter.Pull(p.run)
	}
	return p.resume()
}

// run is the body of p's coroutine.
func (p *Proc) run(suspend func(next *Proc) bool) {
	p.suspend = suspend
	defer func() {
		p.done = true
		p.eng.liveProc--
	}()
	p.body(p)
}

// yield gives the token up until an event resumes p. The proc runs the event
// loop itself: if the next resumption is its own it just returns, with no
// goroutine switch; otherwise it suspends, naming that proc to Run's caller.
// It must only be called from p's own goroutine.
func (p *Proc) yield() {
	next := p.eng.drive()
	if next == p {
		return
	}
	if !p.suspend(next) {
		runtime.Goexit() // Run is unwinding the blocked procs
	}
}

// unwind ends a proc blocked in yield: stop makes its suspend return false
// and it leaves through runtime.Goexit. iter.Pull passes a Goexit on to the
// caller of stop, so a goroutine made for the purpose takes it.
func (p *Proc) unwind() {
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		p.stop()
	}()
	<-exited
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now implements sched.Proc.
func (p *Proc) Now() time.Duration { return p.eng.now }

// Advance implements sched.Proc: the proc sleeps for d of virtual time,
// modeling computation that occupies its core.
func (p *Proc) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative Advance %v", d))
	}
	if d == 0 {
		return
	}
	p.eng.schedule(d, nil, p)
	p.yield()
}

// Park implements sched.Proc: block until Unpark. A permit stored by an
// earlier Unpark makes Park return immediately (and consumes the permit).
func (p *Proc) Park() {
	if p.permit {
		p.permit = false
		return
	}
	p.parked = true
	p.yield()
}

// Unpark implements sched.Proc. It may be called from any simulation context
// (another proc or a plain event). If p is parked, it is scheduled to resume
// at the current virtual time; otherwise a permit is stored.
func (p *Proc) Unpark() {
	if p.done {
		return
	}
	if p.parked {
		// Clear parked immediately so a second Unpark at the same time
		// stores a permit instead of double-resuming.
		p.parked = false
		p.eng.schedule(0, nil, p)
		return
	}
	p.permit = true
}

var _ sched.Proc = (*Proc)(nil)
