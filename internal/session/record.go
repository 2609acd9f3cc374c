// record.go defines the per-record binding material: the additional
// authenticated data (AAD) layout that ties every ciphertext to its
// communication context, the nonce layout that makes per-epoch keys safe
// across ranks, and the DTLS-style sliding replay window.
package session

import (
	"encoding/binary"
	"fmt"

	"encmpi/internal/aead"
)

// Op identifies the routine class a record belongs to. It is authenticated in
// the AAD so a ciphertext sealed for one routine cannot be replayed into
// another (e.g. a Bcast chunk spliced into a point-to-point receive).
type Op uint8

// The record classes. OpRaw covers context-free Seal/Open calls made through
// the plain Engine interface (no communicator routing to bind).
const (
	OpRaw Op = iota
	OpP2P
	OpBcast
	OpAllgather
	OpAlltoall
	OpAlltoallv
	OpAllgatherv
	// The hierarchical classes bind a record to its role in the two-level
	// algorithms (DESIGN.md §15): a sealed inter-node leader exchange must not
	// be transplantable into the flat routine of the same name (the framing
	// differs — leader records carry aggregated multi-rank payloads).
	OpHierBcast
	OpHierAllgather
	OpHierAllreduce
	OpHierAlltoall
)

// Wildcard marks a direction the record deliberately does not bind: fan-out
// collectives (Bcast, Allgather) seal one ciphertext for every receiver, so
// their AAD carries Dst = Wildcard instead of a concrete rank.
const Wildcard = -1

// RecordCtx is the communication context both ends derive independently and
// authenticate via AAD. Src is always the communicator rank of the sealer;
// Dst is the intended receiver or Wildcard. Chunk/Chunks bind a chunked
// rendezvous segment to its position, so segments cannot be reordered or
// transplanted between transfers of the same shape.
type RecordCtx struct {
	Op     Op
	Src    int
	Dst    int
	Tag    int
	Chunk  int
	Chunks int
	// Scratch, when non-nil, is caller-owned storage for the serialized AAD
	// during the call (the communicator lends its request's); not bound.
	Scratch *[AADLen]byte
}

// AADLen is the fixed AAD size (and of the scratch a RecordCtx may lend):
// id(8) ‖ epoch(4) ‖ src(4) ‖ dst(4) ‖ op(1) ‖ tag(8) ‖ seq(8) ‖ chunk(4) ‖ chunks(4).
// The first aadPrefixLen bytes are the same for every record of an epoch.
const (
	aadPrefixLen = 8 + 4
	AADLen       = aadPrefixLen + 4 + 4 + 1 + 8 + 8 + 4 + 4
)

// putAAD serializes the record binding into b: the epoch's precomputed prefix,
// then the per-record fields. Signed fields (src, dst, tag) are written as
// two's-complement fixed-width forms so Wildcard (-1) has a stable encoding.
func (ep *epoch) putAAD(b *[AADLen]byte, seq uint64, ctx *RecordCtx) {
	copy(b[:], ep.aad[:])
	binary.BigEndian.PutUint32(b[12:], uint32(int32(ctx.Src)))
	binary.BigEndian.PutUint32(b[16:], uint32(int32(ctx.Dst)))
	b[20] = byte(ctx.Op)
	binary.BigEndian.PutUint64(b[21:], uint64(int64(ctx.Tag)))
	binary.BigEndian.PutUint64(b[29:], seq)
	binary.BigEndian.PutUint32(b[37:], uint32(int32(ctx.Chunk)))
	binary.BigEndian.PutUint32(b[41:], uint32(int32(ctx.Chunks)))
}

// Nonce layout: src(2) ‖ epoch(2) ‖ seq(8), all big-endian. One AES-GCM key
// serves a whole epoch across every rank, so the nonce must be unique
// session-wide: the sealer's rank occupies the top two bytes and each rank
// draws seq from its own per-epoch atomic counter. The epoch bytes are
// technically redundant under the per-epoch key but let the receiver route a
// record to the right epoch state before running the cipher.
const (
	maxNonceRank = 1<<16 - 1
	// MaxEpoch bounds the epoch counter to what the nonce encodes.
	MaxEpoch = 1<<16 - 1
)

func putNonce(b []byte, src int, epoch uint32, seq uint64) {
	binary.BigEndian.PutUint16(b[0:], uint16(src))
	binary.BigEndian.PutUint16(b[2:], uint16(epoch))
	binary.BigEndian.PutUint64(b[4:], seq)
}

func parseNonce(b []byte) (src int, epoch uint32, seq uint64) {
	src = int(binary.BigEndian.Uint16(b[0:]))
	epoch = uint32(binary.BigEndian.Uint16(b[2:]))
	seq = binary.BigEndian.Uint64(b[4:])
	return
}

// Errors the open path can add on top of plain authentication failure. Both
// wrap aead.ErrAuth: a replayed or stale-epoch record is an authentication
// rejection as far as callers (and the obs attribution) are concerned.
var (
	// ErrReplay rejects a record whose (epoch, src, seq) was already admitted
	// — the ciphertext is genuine but has been seen before.
	ErrReplay = fmt.Errorf("session: replayed record: %w", aead.ErrAuth)

	// ErrStaleEpoch rejects a record from an epoch retired longer ago than
	// the session's grace window.
	ErrStaleEpoch = fmt.Errorf("session: record from expired epoch: %w", aead.ErrAuth)
)

// replayWindow is a DTLS-style sliding window over the 64 most recent
// sequence numbers from one (epoch, src) stream: top is the highest admitted
// seq and bit i of mask marks seq top-i as seen. Records older than the
// window are rejected outright — with at most 64 frames outstanding per
// stream in practice, anything further behind is a replay, not reordering.
type replayWindow struct {
	top  uint64
	mask uint64
}

// admit records seq and reports whether it is fresh. Sequence numbers start
// at 1 (counters pre-increment), so 0 is never genuine.
func (w *replayWindow) admit(seq uint64) bool {
	switch {
	case seq == 0:
		return false
	case seq > w.top:
		d := seq - w.top
		if d >= 64 {
			w.mask = 1
		} else {
			w.mask = w.mask<<d | 1
		}
		w.top = seq
		return true
	case w.top-seq >= 64:
		return false
	default:
		bit := uint64(1) << (w.top - seq)
		if w.mask&bit != 0 {
			return false
		}
		w.mask |= bit
		return true
	}
}
