// Package faulty wraps any transport with deterministic fault injection for
// tests. It models a full wire adversary: corrupting, truncating, or
// extending payload bytes in flight (which AES-GCM must detect), dropping
// messages entirely, replaying an earlier ciphertext in place of a later
// one, reordering deliveries, and duplicating them. It exists because an
// encrypted MPI whose integrity has never been attacked in a test is an
// encrypted MPI whose integrity is folklore.
package faulty

import (
	"fmt"
	"sync"

	"encmpi/internal/mpi"
	"encmpi/internal/obs"
	"encmpi/internal/sched"
)

// Mode selects the injected fault.
type Mode int

// Fault modes.
const (
	// None forwards untouched.
	None Mode = iota
	// Corrupt flips one byte of every matching payload.
	Corrupt
	// Drop silently discards matching messages.
	Drop
	// Truncate cuts TruncateBytes off the end of matching payloads.
	Truncate
	// Extend appends ExtendBytes of garbage to matching payloads.
	Extend
	// Replay records the first matching payload and substitutes it for
	// every later matching payload — the "replace a ciphertext with a prior
	// one" adversary the paper scopes out and the session replay window
	// closes.
	Replay
	// Reorder holds a matching message back and delivers it after whatever
	// the sender injects next, violating per-pair FIFO ordering.
	Reorder
	// DuplicateDelivery delivers every matching message twice.
	DuplicateDelivery
	// SpliceSession records the first matching payload of each wire lane and
	// substitutes a *different* lane's recording for later matching payloads
	// — the cross-session splice: a ciphertext sealed under one session
	// delivered where another session's record was expected. Only AAD-bound
	// sessions (DESIGN.md §13) reject it as an authentication failure; it
	// needs at least two lanes of traffic to find a donor.
	SpliceSession
	// Reflect delivers every matching message normally and bounces a copy
	// back at its sender with src/dst swapped — the reflection adversary. A
	// session engine rejects the bounce before running the cipher: the nonce
	// names the sealer, and the victim matched the record from the other end.
	Reflect
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case Corrupt:
		return "corrupt"
	case Drop:
		return "drop"
	case Truncate:
		return "truncate"
	case Extend:
		return "extend"
	case Replay:
		return "replay"
	case Reorder:
		return "reorder"
	case DuplicateDelivery:
		return "duplicate"
	case SpliceSession:
		return "splice-session"
	case Reflect:
		return "reflect"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// AllModes lists every active fault mode, in a stable order, for sweep
// tests that must cover the whole adversary. The session-specific modes are
// deliberately not in it: AllModes sweeps run against context-free engines,
// whose contract does not claim to detect cross-session splices or
// reflections — SessionModes covers those against the session engine.
var AllModes = []Mode{Corrupt, Drop, Truncate, Extend, Replay, Reorder, DuplicateDelivery}

// SessionModes lists the adversaries only AAD-bound sessions defeat: replay
// of a genuine ciphertext, cross-session splicing, and reflection.
var SessionModes = []Mode{Replay, SpliceSession, Reflect}

// Options is the declarative form of a fault plan, used by the public
// facade's WithFaults option so callers configure the adversary without
// touching the transport type directly.
type Options struct {
	// Mode is the fault to inject (None disables injection).
	Mode Mode
	// MaxInject, when positive, caps how many faults are applied.
	MaxInject int
	// TruncateBytes / ExtendBytes override the 1-byte defaults when positive.
	TruncateBytes int
	ExtendBytes   int
}

// Apply installs the plan on a transport (no victim filter: every
// data-bearing message is eligible).
func (o Options) Apply(t *Transport) {
	if o.TruncateBytes > 0 {
		t.TruncateBytes = o.TruncateBytes
	}
	if o.ExtendBytes > 0 {
		t.ExtendBytes = o.ExtendBytes
	}
	t.SetFaultN(o.Mode, o.MaxInject, nil)
}

// Transport wraps an inner transport.
type Transport struct {
	inner mpi.Transport

	// metrics, when set, receives one FaultInjected per applied fault.
	metrics *obs.Registry

	mu sync.Mutex
	// mode applies to messages admitted by filter.
	mode Mode
	// filter selects victims; nil matches every data-bearing message.
	filter func(*mpi.Msg) bool
	// maxInject, when positive, stops injecting after that many faults.
	maxInject int
	// Injected counts the faults actually applied (all modes). Read it only
	// after traffic has quiesced, or use InjectedBy for a locked read.
	Injected int
	// byMode counts applied faults per mode.
	byMode map[Mode]int

	// TruncateBytes is how many trailing bytes Truncate removes (default 1).
	TruncateBytes int
	// ExtendBytes is how many garbage bytes Extend appends (default 1).
	ExtendBytes int

	// captured is Replay's recorded first matching message.
	captured *mpi.Msg
	// held is Reorder's delayed message, released by the next send.
	held *mpi.Msg
	// spliceStash is SpliceSession's per-lane recording of the first
	// matching payload, the donor material for cross-lane substitution.
	spliceStash map[uint16]mpi.Buffer
}

// New wraps inner with no active fault.
func New(inner mpi.Transport) *Transport {
	return &Transport{
		inner:         inner,
		byMode:        make(map[Mode]int),
		TruncateBytes: 1,
		ExtendBytes:   1,
	}
}

// SetMetrics installs a metrics registry; applied faults are counted on it.
func (t *Transport) SetMetrics(g *obs.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.metrics = g
}

// SetFault installs a fault mode and an optional victim filter, with no
// limit on how many faults are injected.
func (t *Transport) SetFault(mode Mode, filter func(*mpi.Msg) bool) {
	t.SetFaultN(mode, 0, filter)
}

// SetFaultN is SetFault with an injection budget: after n faults the
// transport forwards faithfully again. n ≤ 0 means unlimited.
func (t *Transport) SetFaultN(mode Mode, n int, filter func(*mpi.Msg) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mode = mode
	t.filter = filter
	t.maxInject = n
}

// InjectedBy reports how many faults of the given mode were applied.
func (t *Transport) InjectedBy(mode Mode) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byMode[mode]
}

// InjectedTotal reports the total fault count under the lock.
func (t *Transport) InjectedTotal() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Injected
}

// Flush releases a message held by Reorder, if any. Tests whose final
// message would otherwise stay held call it after the last send. The error,
// if any, is the inner transport's.
func (t *Transport) Flush() error {
	t.mu.Lock()
	held := t.held
	t.held = nil
	t.mu.Unlock()
	if held != nil {
		return t.inner.Send(nil, held)
	}
	return nil
}

// AcquireSlot forwards slot leasing to the inner transport when it offers
// it, so fault sweeps layered over the shm ring transport still exercise
// the zero-copy slot path — the adversary attacks frames in flight, not the
// sender's storage (its tampering modes always mutate detached copies).
func (t *Transport) AcquireSlot(src, dst, n int) (mpi.Buffer, bool) {
	if sw, ok := t.inner.(mpi.SlotWriter); ok {
		return sw.AcquireSlot(src, dst, n)
	}
	return mpi.Buffer{}, false
}

// DeliversInline forwards the inline-delivery property of the inner
// transport: the wrapper passes Msgs through unchanged (its tampering modes
// mutate detached copies), so delivery aliases sender storage exactly when
// the inner transport's does.
func (t *Transport) DeliversInline() bool {
	if id, ok := t.inner.(mpi.InlineDelivery); ok {
		return id.DeliversInline()
	}
	return false
}

// Send implements mpi.Transport. All decisions happen under the lock; the
// actual inner sends happen outside it, because delivery can reenter this
// transport with protocol follow-ups (CTS, DATA). Inner transport failures
// propagate to the caller (the first one, when a plan forwards several
// messages); a message the adversary swallowed on purpose is not a failure.
func (t *Transport) Send(from sched.Proc, m *mpi.Msg) error {
	forward, ackLocal := t.plan(m)
	if ackLocal && m.Done != nil {
		m.Done.Injected()
	}
	var firstErr error
	for _, msg := range forward {
		if err := t.inner.Send(from, msg); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// plan decides, under the lock, what to forward for message m. It returns
// the messages to send (in order) and whether the sender's local completion
// must be signalled here because the original message is not forwarded with
// its Done listener intact (Drop, Reorder).
func (t *Transport) plan(m *mpi.Msg) (forward []*mpi.Msg, ackLocal bool) {
	t.mu.Lock()
	defer t.mu.Unlock()

	mode := t.mode
	eligible := mode != None &&
		(m.Kind == mpi.KindEager || m.Kind == mpi.KindData || m.Kind == mpi.KindDataSeg) &&
		(t.filter == nil || t.filter(m)) &&
		(t.maxInject <= 0 || t.Injected < t.maxInject)

	count := func() {
		t.Injected++
		t.byMode[mode]++
		t.metrics.FaultInjected()
	}

	if eligible {
		switch mode {
		case Corrupt:
			if mm, ok := corrupted(m); ok {
				count()
				m = mm
			}
		case Truncate:
			if mm, ok := truncated(m, t.TruncateBytes); ok {
				count()
				m = mm
			}
		case Extend:
			count()
			m = extended(m, t.ExtendBytes)
		case Drop:
			// Message vanishes; local completion still fires (the sender's
			// NIC accepted it — the loss is downstream).
			count()
			m = nil
			ackLocal = true
		case Replay:
			if t.captured == nil {
				// First matching message: record it and deliver it
				// untouched. Recording is not yet an injection.
				t.captured = detached(m)
			} else {
				count()
				mm := *m
				mm.Buf = t.captured.Buf.Clone()
				m = &mm
			}
		case SpliceSession:
			if donor, ok := t.spliceDonorLocked(m.Lane); ok {
				// A ciphertext from another lane (another session) replaces
				// this record's payload; the frame header — and so the
				// matching — is untouched, exactly like a wire adversary
				// swapping ciphertexts between two streams it cannot read.
				count()
				mm := *m
				mm.Buf = donor.Clone()
				m = &mm
			} else if !m.Buf.IsSynthetic() && m.Buf.Len() > 0 {
				// First matching payload on this lane: record it as donor
				// material and deliver it untouched. Recording is not yet an
				// injection.
				if t.spliceStash == nil {
					t.spliceStash = make(map[uint16]mpi.Buffer)
				}
				if _, seen := t.spliceStash[m.Lane]; !seen {
					t.spliceStash[m.Lane] = m.Buf.Clone()
				}
			}
		case Reflect:
			// The original is forwarded untouched below; a copy bounces back
			// at the sender with the endpoints swapped.
			count()
			bounce := detached(m)
			bounce.Src, bounce.Dst = m.Dst, m.Src
			forward = append(forward, bounce)
		case Reorder:
			if t.held == nil {
				// Hold this message; whatever is sent next overtakes it.
				// The sender's completion fires now (the bytes left the
				// NIC; the delay is downstream), so a blocking rendezvous
				// send cannot deadlock against its own held payload.
				count()
				t.held = detached(m)
				return nil, true
			}
		}
	}

	if m != nil {
		forward = append(forward, m)
		if eligible && mode == DuplicateDelivery {
			count()
			forward = append(forward, detached(m))
		}
	}
	// Any onward traffic releases a held reorder victim behind it.
	if t.held != nil && len(forward) > 0 {
		forward = append(forward, t.held)
		t.held = nil
	}
	return forward, ackLocal
}

// spliceDonorLocked returns recorded donor material from any lane other than
// the victim's. Caller holds t.mu.
func (t *Transport) spliceDonorLocked(victim uint16) (mpi.Buffer, bool) {
	for lane, buf := range t.spliceStash {
		if lane != victim {
			return buf, true
		}
	}
	return mpi.Buffer{}, false
}

// detached clones a message for out-of-band delivery: the payload is copied
// so later mutations don't alias, and the completion listener is stripped
// so the sender's completion (or failure) doesn't fire twice (or late).
func detached(m *mpi.Msg) *mpi.Msg {
	mm := *m
	mm.Buf = m.Buf.Clone()
	mm.Done = nil
	return &mm
}

// corrupted flips one byte of a copy of m's payload, exactly like
// corruption on the wire; the sender's buffer is untouched. Synthetic and
// empty payloads cannot be corrupted.
func corrupted(m *mpi.Msg) (*mpi.Msg, bool) {
	if m.Buf.IsSynthetic() || m.Buf.Len() == 0 {
		return nil, false
	}
	tampered := m.Buf.Clone()
	tampered.Data[tampered.Len()/2] ^= 0x20
	mm := *m
	mm.Buf = tampered
	return &mm, true
}

// truncated removes k trailing bytes from a copy of m's payload. Synthetic
// payloads shrink by length only. Empty payloads cannot be truncated.
func truncated(m *mpi.Msg, k int) (*mpi.Msg, bool) {
	n := m.Buf.Len()
	if n == 0 || k <= 0 {
		return nil, false
	}
	if k > n {
		k = n
	}
	mm := *m
	if m.Buf.IsSynthetic() {
		mm.Buf = mpi.Synthetic(n - k)
	} else {
		tampered := m.Buf.Clone()
		mm.Buf = mpi.Bytes(tampered.Data[:n-k])
	}
	return &mm, true
}

// extended appends k bytes of 0x5A garbage to a copy of m's payload.
func extended(m *mpi.Msg, k int) *mpi.Msg {
	if k <= 0 {
		k = 1
	}
	mm := *m
	if m.Buf.IsSynthetic() {
		mm.Buf = mpi.Synthetic(m.Buf.Len() + k)
		return &mm
	}
	grown := make([]byte, m.Buf.Len()+k)
	copy(grown, m.Buf.Data)
	for i := m.Buf.Len(); i < len(grown); i++ {
		grown[i] = 0x5A
	}
	mm.Buf = mpi.Bytes(grown)
	return &mm
}

var (
	_ mpi.Transport  = (*Transport)(nil)
	_ mpi.SlotWriter = (*Transport)(nil)
)
