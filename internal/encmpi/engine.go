// Package encmpi is the paper's primary contribution rebuilt in Go: an MPI
// layer whose point-to-point and collective communication is protected by
// AES-GCM, sending every ℓ-byte plaintext as a (ℓ+28)-byte wire message
// nonce(12) ‖ ciphertext(ℓ) ‖ tag(16), exactly as Fig. 1 and Algorithm 1
// describe. Encryption happens before the underlying MPI operation and
// decryption after it — and for non-blocking receives, *inside Wait*, which
// preserves the non-blocking property (§IV).
//
// Two crypto engines drive the layer: RealEngine encrypts actual bytes with
// any registered AEAD codec (the measured Go tiers), and ModelEngine charges
// calibrated virtual time for the four C libraries of the paper inside the
// cluster simulator.
package encmpi

import (
	"fmt"
	"time"

	"encmpi/internal/aead"
	"encmpi/internal/bufpool"
	"encmpi/internal/costmodel"
	"encmpi/internal/mpi"
	"encmpi/internal/sched"
	"encmpi/internal/session"
)

// Engine is the one crypto contract of the encrypted layer (DESIGN.md §7.1):
// every engine implements all of it, so the communicator never asks what an
// engine can do — it makes the same two calls for every record.
//
// dst is the optional destination. nil means "give me a buffer": the result
// owns whatever pool lease backs it and the caller releases it. Non-nil means
// "land the bytes here": on success the result is an unleased view of
// dst[:n]; when the bytes cannot land there (dst too small, a synthetic
// input, an engine that never seals in place) SealTo reports ok=false and
// OpenTo an error — nothing was accounted, dst's contents are undefined, and
// the caller falls back to a nil-dst call.
//
// ctx is the record's communication binding. Engines that authenticate it as
// AEAD additional data (the session engine) fail any open whose derived
// context differs from the sealer's; the others ignore it. The zero RecordCtx
// (Op == session.OpRaw) is the context-free form. It travels by value so no
// engine ever costs a heap allocation per record for it.
type Engine interface {
	// Name identifies the engine for reports.
	Name() string
	// WireLen is the sealed size of an n-byte plaintext (n+28 per AES-GCM
	// record; the parallel engine expands per chunk).
	WireLen(n int) int
	// SealTo encrypts plain into its wire form, charging any modeled CPU
	// cost to proc (which may be nil in non-process contexts).
	SealTo(proc sched.Proc, dst []byte, plain mpi.Buffer, ctx session.RecordCtx) (wire mpi.Buffer, ok bool)
	// OpenTo authenticates and decrypts a wire buffer.
	OpenTo(proc sched.Proc, dst []byte, wire mpi.Buffer, ctx session.RecordCtx) (mpi.Buffer, error)
	// Seal is SealTo(proc, nil, plain, session.RecordCtx{}).
	Seal(proc sched.Proc, plain mpi.Buffer) mpi.Buffer
	// Open is OpenTo(proc, nil, wire, session.RecordCtx{}).
	Open(proc sched.Proc, wire mpi.Buffer) (mpi.Buffer, error)
}

var (
	_ Engine = NullEngine{}
	_ Engine = (*RealEngine)(nil)
	_ Engine = (*ParallelEngine)(nil)
	_ Engine = (*ModelEngine)(nil)
	_ Engine = (*session.Engine)(nil)
	_ Engine = (*HearEngine)(nil)
)

// errDstShort reports an OpenTo destination that cannot hold the plaintext.
func errDstShort(have, need int) error {
	return fmt.Errorf("encmpi: open destination holds %d bytes, plaintext is %d", have, need)
}

// landIn copies src into dst for the engines whose plaintext is (a prefix
// of) the wire itself; a synthetic src has no bytes to land.
func landIn(dst []byte, src mpi.Buffer, n int) (mpi.Buffer, error) {
	if src.IsSynthetic() {
		return mpi.Buffer{}, fmt.Errorf("encmpi: cannot land a synthetic buffer in a destination")
	}
	if n > len(dst) {
		return mpi.Buffer{}, errDstShort(len(dst), n)
	}
	return mpi.Bytes(dst[:copy(dst, src.Data[:n])]), nil
}

// NullEngine is the unencrypted baseline: buffers pass through untouched.
// Running the benchmark harness with NullEngine gives the "Unencrypted" rows
// of every table.
type NullEngine struct{}

// Name implements Engine.
func (NullEngine) Name() string { return "unencrypted" }

// WireLen implements Engine.
func (NullEngine) WireLen(n int) int { return n }

// SealTo implements Engine. There is nothing to seal, so nothing lands in
// dst: a non-nil dst is declined.
func (NullEngine) SealTo(_ sched.Proc, dst []byte, plain mpi.Buffer, _ session.RecordCtx) (mpi.Buffer, bool) {
	if dst != nil {
		return mpi.Buffer{}, false
	}
	return plain, true
}

// OpenTo implements Engine.
func (NullEngine) OpenTo(_ sched.Proc, dst []byte, wire mpi.Buffer, _ session.RecordCtx) (mpi.Buffer, error) {
	if dst != nil {
		return landIn(dst, wire, wire.Len())
	}
	return wire, nil
}

// Seal implements Engine.
func (NullEngine) Seal(_ sched.Proc, plain mpi.Buffer) mpi.Buffer { return plain }

// Open implements Engine.
func (NullEngine) Open(_ sched.Proc, wire mpi.Buffer) (mpi.Buffer, error) { return wire, nil }

// RealEngine encrypts real bytes with an aead.Codec, drawing nonces from a
// NonceSource (Algorithm 1 uses fresh random nonces; counter sources are the
// ablation).
type RealEngine struct {
	codec aead.Codec
	nonce aead.NonceSource
}

// NewRealEngine builds a real engine.
func NewRealEngine(codec aead.Codec, nonce aead.NonceSource) *RealEngine {
	return &RealEngine{codec: codec, nonce: nonce}
}

// Name implements Engine.
func (e *RealEngine) Name() string { return e.codec.Name() }

// WireLen implements Engine.
func (e *RealEngine) WireLen(n int) int { return aead.WireLen(n) }

// SealTo implements Engine. With a nil dst, synthetic buffers are
// materialized as zeros — real cryptography needs real bytes, and the cost
// is then honestly paid — and the wire buffer (like the zeroed scratch) is
// drawn from the buffer pool. With a dst (the shm ring's transport slot,
// DESIGN.md §14) the record lands there or the seal is declined: synthetic
// plaintext, a too-small dst, or a padding codec that outgrew dst. A nonce
// may have been consumed on that last path; nonce sources tolerate gaps.
func (e *RealEngine) SealTo(_ sched.Proc, dst []byte, plain mpi.Buffer, _ session.RecordCtx) (mpi.Buffer, bool) {
	if dst != nil && (plain.IsSynthetic() || aead.WireLen(plain.Len()) > len(dst)) {
		return mpi.Buffer{}, false
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
	// EncryptMessage writes into out when its capacity covers the wire
	// length (true for tag-exact codecs; a padding codec may outgrow it and
	// reallocate, in which case a lease recycles unused — safe).
	wire, err := aead.EncryptMessage(e.codec, e.nonce, out[:0], data)
	scratch.Release()
	if err != nil {
		lease.Release()
		panic(fmt.Sprintf("encmpi: nonce generation failed: %v", err))
	}
	if dst == nil {
		return mpi.BytesWithLease(wire, lease), true
	}
	if len(wire) > len(dst) || &wire[0] != &dst[0] {
		return mpi.Buffer{}, false // the codec outgrew dst and reallocated
	}
	return mpi.Bytes(wire), true
}

// OpenTo implements Engine. With a nil dst the plaintext buffer is drawn from
// the buffer pool; with a dst (the chunked receive's message assembly) the
// plaintext lands there with no intermediate buffer.
func (e *RealEngine) OpenTo(_ sched.Proc, dst []byte, wire mpi.Buffer, _ session.RecordCtx) (mpi.Buffer, error) {
	if wire.IsSynthetic() {
		return mpi.Buffer{}, fmt.Errorf("encmpi: cannot decrypt a synthetic buffer with a real engine")
	}
	n, err := aead.PlainLen(wire.Len())
	if err != nil {
		return mpi.Buffer{}, err
	}
	out := dst
	var lease *bufpool.Lease
	if dst == nil {
		lease = bufpool.Get(n)
		out = lease.Bytes()
	} else if n > len(dst) {
		return mpi.Buffer{}, errDstShort(len(dst), n)
	}
	// DecryptMessage opens into out when its capacity covers the plaintext
	// (true for tag-exact codecs; others may reallocate).
	plain, err := aead.DecryptMessage(e.codec, out[:0], wire.Data)
	if err != nil {
		lease.Release()
		return mpi.Buffer{}, err
	}
	if dst == nil {
		return mpi.BytesWithLease(plain, lease), nil
	}
	if len(plain) > 0 && &plain[0] != &dst[0] {
		// The codec reallocated: land the bytes where the caller asked.
		copy(dst, plain)
	}
	return mpi.Bytes(dst[:len(plain)]), nil
}

// Seal implements Engine.
func (e *RealEngine) Seal(p sched.Proc, plain mpi.Buffer) mpi.Buffer {
	wire, _ := e.SealTo(p, nil, plain, session.RecordCtx{})
	return wire
}

// Open implements Engine.
func (e *RealEngine) Open(p sched.Proc, wire mpi.Buffer) (mpi.Buffer, error) {
	return e.OpenTo(p, nil, wire, session.RecordCtx{})
}

// ModelEngine charges calibrated virtual time for encryption and decryption
// using a cost-model profile of one of the paper's libraries. Buffers stay
// synthetic; only sizes and time move.
type ModelEngine struct {
	profile costmodel.Profile

	// SenderOverhead and ReceiverOverhead are the library-independent
	// per-message costs of the encrypted MPI layer itself (nonce generation,
	// ciphertext buffer management), derived from the gap between the
	// paper's Fig. 2 curves and its encrypted ping-pong deltas.
	SenderOverhead   time.Duration
	ReceiverOverhead time.Duration

	// Threads models the §V-C discussion of parallelizing encryption: the
	// data-dependent part of the crypto time divides by Threads. 1 (or 0)
	// reproduces the paper's single-thread implementation.
	Threads int
}

// Default per-message overheads (see DESIGN.md calibration notes).
const (
	DefaultSenderOverhead   = 800 * time.Nanosecond
	DefaultReceiverOverhead = 500 * time.Nanosecond
)

// NewModelEngine builds a model engine for a library profile.
func NewModelEngine(p costmodel.Profile) *ModelEngine {
	return &ModelEngine{
		profile:          p,
		SenderOverhead:   DefaultSenderOverhead,
		ReceiverOverhead: DefaultReceiverOverhead,
		Threads:          1,
	}
}

// Name implements Engine.
func (e *ModelEngine) Name() string {
	return fmt.Sprintf("%s-%d(%s)", e.profile.Library, e.profile.KeyBits, e.profile.Variant)
}

// WireLen implements Engine.
func (e *ModelEngine) WireLen(n int) int { return aead.WireLen(n) }

// threads returns the effective parallelism.
func (e *ModelEngine) threads() time.Duration {
	if e.Threads <= 1 {
		return 1
	}
	return time.Duration(e.Threads)
}

// SealTo implements Engine: advance the proc by the modeled encryption time.
// Real payload bytes are preserved (padded by the 28-byte wire overhead) so
// protocols that mix small real headers with synthetic bulk data work under
// the model engine too. The model never seals in place: a non-nil dst is
// declined before any time is charged.
func (e *ModelEngine) SealTo(proc sched.Proc, dst []byte, plain mpi.Buffer, _ session.RecordCtx) (mpi.Buffer, bool) {
	if dst != nil {
		return mpi.Buffer{}, false
	}
	cost := e.SenderOverhead + e.profile.Curve.EncTime(plain.Len())/e.threads()
	if proc != nil {
		proc.Advance(cost)
	}
	if plain.IsSynthetic() {
		return mpi.Synthetic(plain.Len() + aead.Overhead), true
	}
	wire := make([]byte, plain.Len()+aead.Overhead)
	copy(wire, plain.Data)
	return mpi.Bytes(wire), true
}

// OpenTo implements Engine.
func (e *ModelEngine) OpenTo(proc sched.Proc, dst []byte, wire mpi.Buffer, _ session.RecordCtx) (mpi.Buffer, error) {
	n, err := aead.PlainLen(wire.Len())
	if err != nil {
		return mpi.Buffer{}, err
	}
	// Prefix keeps the wire buffer's lease identity: a caller that would
	// recycle the wire after Open can see the plaintext still aliases it.
	plain := wire.Prefix(n)
	if dst != nil {
		// Land first: a destination that cannot take the bytes fails before
		// any time is charged.
		if plain, err = landIn(dst, wire, n); err != nil {
			return mpi.Buffer{}, err
		}
	}
	cost := e.ReceiverOverhead + e.profile.Curve.DecTime(n)/e.threads()
	if proc != nil {
		proc.Advance(cost)
	}
	return plain, nil
}

// Seal implements Engine.
func (e *ModelEngine) Seal(p sched.Proc, plain mpi.Buffer) mpi.Buffer {
	wire, _ := e.SealTo(p, nil, plain, session.RecordCtx{})
	return wire
}

// Open implements Engine.
func (e *ModelEngine) Open(p sched.Proc, wire mpi.Buffer) (mpi.Buffer, error) {
	return e.OpenTo(p, nil, wire, session.RecordCtx{})
}
