// engine.go adapts a Session to the encrypted MPI layer's engine contract:
// Name/WireLen/SealTo/OpenTo plus the Seal/Open shorthands mirror
// encmpi.Engine structurally (this package cannot import encmpi — encmpi
// imports it for RecordCtx).
package session

import (
	"errors"
	"fmt"
	"time"

	"encmpi/internal/aead"
	"encmpi/internal/bufpool"
	"encmpi/internal/mpi"
	"encmpi/internal/sched"
)

// Engine seals and opens records under the session's current epoch. The
// wire format is unchanged — nonce(12) ‖ ciphertext ‖ tag(16) — only the
// nonce layout and the (never transmitted) AAD differ from RealEngine.
// Concurrency safety follows the underlying codec: the aesstd tier is safe
// for concurrent Seal/Open, the from-scratch gcm tiers are not (same caveat
// as RealEngine).
type Engine struct {
	s *Session
}

// aadScratch returns the storage a record's AAD is serialized into: what the
// context lends, else a fresh array — it escapes through the codec interface.
func aadScratch(ctx *RecordCtx) *[AADLen]byte {
	if ctx.Scratch != nil {
		return ctx.Scratch
	}
	return new([AADLen]byte)
}

// Engine returns the session's crypto engine.
func (s *Session) Engine() *Engine { return &Engine{s: s} }

// Session returns the session this engine seals for.
func (e *Engine) Session() *Session { return e.s }

// Name implements the engine contract.
func (e *Engine) Name() string { return "session(" + e.s.name + ")" }

// WireLen implements the engine contract.
func (e *Engine) WireLen(n int) int { return aead.WireLen(n) }

// Seal seals without communicator context (OpRaw): the record is still bound
// to (session id, epoch, sealer rank, seq), just not to a routing decision.
func (e *Engine) Seal(proc sched.Proc, plain mpi.Buffer) mpi.Buffer {
	wire, _ := e.SealTo(proc, nil, plain, RecordCtx{})
	return wire
}

// Open opens a context-free record. The sealer's rank is read from the
// nonce; everything else the AAD binds is reconstructed as OpRaw.
func (e *Engine) Open(proc sched.Proc, wire mpi.Buffer) (mpi.Buffer, error) {
	return e.OpenTo(proc, nil, wire, RecordCtx{})
}

// SealTo seals plain with its communication context authenticated into the
// AAD. ctx.Src must be the sealing endpoint's communicator rank (it becomes
// the nonce's source field, which is what keeps the shared per-epoch key
// nonce-safe across ranks); the zero ctx is the context-free OpRaw record.
//
// With a nil dst the wire buffer is pooled and synthetic buffers are
// materialized as zeros, exactly like RealEngine: real cryptography needs
// real bytes. With a dst — the shm ring's transport slot — the record lands
// there or the seal is declined (synthetic plaintext, a too-small dst, or a
// codec that outgrew dst): dst's contents are then undefined, nothing was
// accounted, and the sequence number consumed on the overgrowth path simply
// leaves a gap the replay window tolerates.
func (e *Engine) SealTo(_ sched.Proc, dst []byte, plain mpi.Buffer, ctx RecordCtx) (mpi.Buffer, bool) {
	if dst != nil && (plain.IsSynthetic() || aead.WireLen(plain.Len()) > len(dst)) {
		return mpi.Buffer{}, false
	}
	s := e.s
	ep, src := s.sealState()
	if ctx.Op == OpRaw {
		ctx = RecordCtx{Op: OpRaw, Src: src, Dst: Wildcard, Scratch: ctx.Scratch}
	}
	data := plain.Data
	var scratch, lease *bufpool.Lease
	if plain.IsSynthetic() && plain.Len() > 0 {
		scratch = bufpool.Get(plain.Len())
		data = scratch.Bytes()[:plain.Len()]
		clear(data) // pooled storage is dirty; the model is all-zeros
	}
	out := dst
	if dst == nil {
		lease = bufpool.Get(aead.WireLen(len(data)))
		out = lease.Bytes()
	}
	seq := ep.seq.Add(1)
	ab := aadScratch(&ctx)
	ep.putAAD(ab, seq, &ctx)
	nb := out[:aead.NonceSize]
	putNonce(nb, ctx.Src, ep.n, seq)
	// SealAAD appends ciphertext ‖ tag in place: out's capacity covers the
	// full wire length, so no reallocation happens for tag-exact codecs.
	wire := ep.codec.SealAAD(nb, nb, data, ab[:])
	scratch.Release()
	if dst != nil && (len(wire) > len(dst) || &wire[0] != &dst[0]) {
		return mpi.Buffer{}, false
	}
	s.scope.Sealed()
	if dst == nil {
		return mpi.BytesWithLease(wire, lease), true
	}
	return mpi.Bytes(wire), true
}

// OpenTo authenticates and decrypts a record against the context the
// receiver derived for it. Any mismatch — wrong session, wrong epoch key,
// swapped src/dst, spliced chunk index, replayed seq — fails exactly like a
// forged tag. The plaintext is pooled under a nil dst and lands in dst
// otherwise (the chunked receive's message assembly); a dst that cannot hold
// it fails before the cipher runs, leaving the replay window untouched.
func (e *Engine) OpenTo(_ sched.Proc, dst []byte, wire mpi.Buffer, ctx RecordCtx) (mpi.Buffer, error) {
	s := e.s
	if wire.IsSynthetic() {
		return mpi.Buffer{}, errors.New("session: cannot decrypt a synthetic buffer")
	}
	n, err := aead.PlainLen(wire.Len())
	if err != nil {
		return mpi.Buffer{}, err
	}
	if dst != nil && n > len(dst) {
		return mpi.Buffer{}, fmt.Errorf("session: open destination holds %d bytes, plaintext is %d", len(dst), n)
	}
	src, epn, seq := parseNonce(wire.Data)
	if ctx.Op == OpRaw {
		ctx = RecordCtx{Op: OpRaw, Src: src, Dst: Wildcard, Scratch: ctx.Scratch}
	} else if ctx.Src != src {
		// Reflected or re-addressed records announce themselves here: the
		// nonce says who sealed, the receiver knows who it matched from.
		// The AAD would reject them anyway; failing early skips the cipher.
		return mpi.Buffer{}, e.reject(fmt.Errorf("session: record sealed by rank %d, matched from rank %d: %w", src, ctx.Src, aead.ErrAuth))
	}
	ep, err := s.epochForOpen(epn)
	if err != nil {
		return mpi.Buffer{}, e.reject(err)
	}
	out := dst
	var lease *bufpool.Lease
	if dst == nil {
		lease = bufpool.Get(n)
		out = lease.Bytes()
	}
	ab := aadScratch(&ctx)
	ep.putAAD(ab, seq, &ctx)
	plain, err := ep.codec.OpenAAD(out[:0], wire.Data[:aead.NonceSize], wire.Data[aead.NonceSize:], ab[:])
	if err == nil && !ep.admit(src, seq) {
		err = ErrReplay
	}
	if err != nil {
		lease.Release()
		return mpi.Buffer{}, e.reject(err)
	}
	s.scope.Opened()
	if dst == nil {
		return mpi.BytesWithLease(plain, lease), nil
	}
	if len(plain) > 0 && &plain[0] != &dst[0] {
		copy(dst, plain)
	}
	return mpi.Bytes(dst[:len(plain)]), nil
}

// reject classifies an open failure into the session counters. Replay and
// stale-epoch rejections both wrap aead.ErrAuth, so the communicator's
// rank-level attribution (auth failure, never a survived stray) holds
// without any special-casing there.
func (e *Engine) reject(err error) error {
	sc := e.s.scope
	switch {
	case errors.Is(err, ErrReplay):
		sc.ReplayRejected()
	case errors.Is(err, ErrStaleEpoch):
		sc.StaleEpoch()
	}
	if errors.Is(err, aead.ErrAuth) {
		sc.AuthFailure()
	}
	return err
}

// sealState returns the epoch and nonce source a new record seals under: two
// atomic loads, plus a monotonic compare when a rekey interval is set.
func (s *Session) sealState() (*epoch, int) {
	ep := s.cur.Load()
	if s.rekeyEvery > 0 && time.Since(ep.started) >= s.rekeyEvery {
		// Interval roll, best effort: after a concurrent roll, at the epoch
		// limit or on a codec failure traffic stays on the current epoch.
		s.mu.Lock()
		if s.cur.Load() == ep && ep.n < MaxEpoch {
			_ = s.rekeyLocked()
		}
		ep = s.cur.Load()
		s.mu.Unlock()
	}
	return ep, int(s.src.Load())
}
