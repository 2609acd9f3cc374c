// Package session gives every encrypted communicator a keyed session with an
// epoch counter. Each record's AAD binds (session id, epoch, src, dst,
// tag/op, seq, chunk position), so replayed, cross-session-spliced, or
// reflected ciphertexts fail AEAD authentication. Epochs support
// zero-downtime rekeying: Rekey opens epoch e+1 for new seals while
// in-flight epoch-e traffic (including chunked rendezvous streams
// mid-message) keeps opening during a bounded grace window.
//
// Key schedule: every epoch's AES key is derived from the session master key
// with HKDF-SHA256 using info = "epoch" ‖ id ‖ n, so both ends of a session
// reach the same epoch key without ever moving key material, and compromise
// of one epoch key does not expose the master or sibling epochs.
package session

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"encmpi/internal/aead"
	"encmpi/internal/obs"
)

// Defaults for the epoch machinery.
const (
	// DefaultEpochGrace is how long a retired epoch keeps opening records.
	// It must cover the in-flight window of the slowest transfer: a chunked
	// rendezvous sealed under epoch e finishes draining under e even if the
	// sender rolls to e+1 mid-message.
	DefaultEpochGrace = 5 * time.Second

	// maxEpochAhead bounds how far past the local current epoch a received
	// record may claim to be. A peer that rekeyed first is legitimately
	// ahead by a few epochs; an attacker flipping nonce epoch bytes should
	// not be able to make us derive unbounded key material.
	maxEpochAhead = 8
)

// Config configures New. Build constructs the per-epoch codec from a derived
// key; it is how the session layer stays codec-agnostic without importing
// the codec registry.
type Config struct {
	Key   []byte
	Build func(key []byte) (aead.Codec, error)

	// ID identifies the session; 0 derives a stable id from the key, so
	// peers constructing from the same key agree without coordination.
	ID uint64

	// Grace is the old-epoch acceptance window; 0 means DefaultEpochGrace,
	// negative means no grace (retired epochs reject immediately).
	Grace time.Duration

	// RekeyEvery, when positive, rolls the epoch automatically once the
	// current one has sealed for that long.
	RekeyEvery time.Duration
}

// Session is one keyed security association shared by all ranks of a job.
// Each rank constructs its own Session from the same master key (mirroring
// how ExchangeKey distributes codec keys) and attaches it to its
// communicator; the instances never talk to each other — agreement comes
// from the deterministic key schedule and AAD derivation.
type Session struct {
	id         uint64
	master     []byte
	build      func([]byte) (aead.Codec, error)
	grace      time.Duration
	rekeyEvery time.Duration
	name       string
	lane       uint16

	scope *obs.SessionScope // nil-safe

	// derivations counts every HKDF epoch-key derivation this session ever
	// ran (creation, rekeys, ahead-of-time opens). Persistent-plan tests pin
	// it across steady-state iterations: a flat counter proves the hot path
	// reuses pre-derived key material instead of re-deriving per operation.
	derivations atomic.Uint64

	// cur is the current seal epoch and src the nonce source field (this
	// endpoint's rank; 0 until Attach). The record path reads each with one
	// atomic load and never takes mu (DESIGN.md §13): a published epoch is
	// immutable but for its atomic seal counter and its own mutex, so a reader
	// racing a Rekey holds what the lock would have given it a moment earlier.
	cur atomic.Pointer[epoch]
	src atomic.Int32

	// mu serializes cur's writers (Rekey, interval roll) and Attach, and guards
	// old and ahead, which only non-current-epoch records consult.
	mu       sync.Mutex
	old      map[uint32]*epoch // retired epochs still inside grace
	ahead    map[uint32]*epoch // epochs opened for peers that rekeyed first
	attached bool
}

// epoch is one key generation. seq is the rank's seal counter (this rank's
// contribution to the nonce space); windows holds per-source replay state on
// the open side.
type epoch struct {
	n     uint32
	codec aead.AADCodec
	// aad is the id ‖ epoch prefix of every record's AAD, serialized once.
	aad [aadPrefixLen]byte
	// started is when the epoch became current, written before cur publishes it.
	started time.Time
	seq     atomic.Uint64

	mu        sync.Mutex
	retiredAt time.Time // zero while the epoch is current or ahead
	windows   map[int]*replayWindow
}

// New builds a session from a master key. The codec built from derived keys
// must support AAD (the GCM tiers do; CCM does not and is rejected here —
// a session without context binding would be the construction this layer
// exists to forbid).
func New(cfg Config) (*Session, error) {
	if !aead.ValidKeyLen(len(cfg.Key)) {
		return nil, aead.KeySizeError(len(cfg.Key))
	}
	if cfg.Build == nil {
		return nil, errors.New("session: Config.Build is required")
	}
	s := &Session{
		id:         cfg.ID,
		master:     append([]byte(nil), cfg.Key...),
		build:      cfg.Build,
		grace:      cfg.Grace,
		rekeyEvery: cfg.RekeyEvery,
		old:        make(map[uint32]*epoch),
		ahead:      make(map[uint32]*epoch),
	}
	if s.id == 0 {
		s.id = deriveID(cfg.Key)
	}
	if s.grace == 0 {
		s.grace = DefaultEpochGrace
	} else if s.grace < 0 {
		s.grace = 0
	}
	s.lane = deriveLane(s.id)
	ep, err := s.newEpoch(0)
	if err != nil {
		return nil, err
	}
	s.cur.Store(ep)
	s.name = ep.codec.Name()
	return s, nil
}

// deriveID hashes the master key into a stable non-zero session id so peers
// sharing a key agree on the id (and thus the AAD and lane) by construction.
func deriveID(key []byte) uint64 {
	h := sha256.New()
	h.Write([]byte("encmpi/session/id/v1"))
	h.Write(key)
	id := binary.BigEndian.Uint64(h.Sum(nil))
	if id == 0 {
		id = 1
	}
	return id
}

// deriveLane folds the session id onto the 16-bit wire lane space, avoiding
// lane 0 (legacy, pre-session traffic). Distinct sessions sharing a job
// should use distinct ids; a lane collision is not a security problem (AAD
// still separates the sessions) but would cross-deliver — and so
// auth-reject — honest records.
func deriveLane(id uint64) uint16 {
	folded := uint16(id) ^ uint16(id>>16) ^ uint16(id>>32) ^ uint16(id>>48)
	return 1 + folded%(1<<16-1)
}

// deriveEpochKey is single-block HKDF-SHA256 (extract-then-expand), sized to
// the master key length so the epoch codec matches the configured AES tier.
func deriveEpochKey(master []byte, id uint64, n uint32) []byte {
	ext := hmac.New(sha256.New, []byte("encmpi/session/v1"))
	ext.Write(master)
	prk := ext.Sum(nil)

	var info [8 + 4]byte
	binary.BigEndian.PutUint64(info[0:], id)
	binary.BigEndian.PutUint32(info[8:], n)
	exp := hmac.New(sha256.New, prk)
	exp.Write([]byte("epoch"))
	exp.Write(info[:])
	exp.Write([]byte{0x01})
	okm := exp.Sum(nil)
	return okm[:len(master)]
}

// newEpoch derives epoch n's key and codec.
func (s *Session) newEpoch(n uint32) (*epoch, error) {
	s.derivations.Add(1)
	c, err := s.build(deriveEpochKey(s.master, s.id, n))
	if err != nil {
		return nil, fmt.Errorf("session: building epoch %d codec: %w", n, err)
	}
	ac := aead.AsAAD(c)
	if ac == nil {
		return nil, fmt.Errorf("session: codec %s cannot authenticate additional data; sessions require an AEAD with AAD support (the CCM tiers do not qualify)", c.Name())
	}
	ep := &epoch{
		n:       n,
		codec:   ac,
		started: time.Now(),
		windows: make(map[int]*replayWindow),
	}
	binary.BigEndian.PutUint64(ep.aad[0:], s.id)
	binary.BigEndian.PutUint32(ep.aad[8:], n)
	return ep, nil
}

// ID returns the session id authenticated into every record.
func (s *Session) ID() uint64 { return s.id }

// Lane returns the wire lane this session's frames travel on.
func (s *Session) Lane() uint16 { return s.lane }

// Name describes the session's codec tier for engine reports.
func (s *Session) Name() string { return s.name }

// Derivations returns how many epoch-key derivations the session has run in
// its lifetime. Steady-state traffic — persistent collectives included —
// performs none: the counter only moves on creation, Rekey, and the first
// record received from an epoch a peer entered ahead of us.
func (s *Session) Derivations() uint64 { return s.derivations.Load() }

// Epoch returns the current seal epoch.
func (s *Session) Epoch() uint32 { return s.cur.Load().n }

// Attach binds the session to one communicator endpoint (rank of size). A
// session is a single security association: attaching twice is a misuse
// (two endpoints would share one seal counter and collide nonces).
func (s *Session) Attach(rank, size int, scope *obs.SessionScope) error {
	if rank < 0 || rank > maxNonceRank {
		return fmt.Errorf("session: rank %d does not fit the nonce's 16-bit source field", rank)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attached {
		return errors.New("session: already attached to a communicator; create one Session per endpoint")
	}
	s.attached = true
	s.src.Store(int32(rank))
	s.scope = scope
	s.scope.SetEpoch(s.cur.Load().n)
	return nil
}

// Rekey rolls the session to the next epoch: new seals use epoch e+1
// immediately, while records sealed under e keep opening for the grace
// window so in-flight traffic drains without a single honest failure.
func (s *Session) Rekey() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rekeyLocked()
}

// rekeyLocked advances cur to n+1. If the receive path already opened n+1
// ahead-of-time (the peer rekeyed first), that epoch object is promoted —
// its replay windows must carry over, or a record admitted while the epoch
// was "ahead" could be replayed into the promoted copy.
func (s *Session) rekeyLocked() error {
	retired := s.cur.Load()
	next := retired.n + 1
	if next > MaxEpoch {
		return fmt.Errorf("session: epoch counter exhausted at %d; start a new session", MaxEpoch)
	}
	ep := s.ahead[next]
	if ep != nil {
		delete(s.ahead, next)
		ep.started = time.Now()
	} else {
		var err error
		ep, err = s.newEpoch(next)
		if err != nil {
			return err
		}
	}
	retired.mu.Lock()
	retired.retiredAt = time.Now()
	retired.mu.Unlock()
	s.old[retired.n] = retired
	s.cur.Store(ep)
	s.pruneLocked()
	s.scope.Rekey(next)
	return nil
}

// pruneLocked drops retired epochs past the grace window so key material and
// replay state do not accumulate across many rekeys.
func (s *Session) pruneLocked() {
	for n, ep := range s.old {
		ep.mu.Lock()
		expired := time.Since(ep.retiredAt) > s.grace
		ep.mu.Unlock()
		if expired {
			delete(s.old, n)
		}
	}
}

// epochForOpen resolves the epoch a received record claims. Current opens
// directly, lock-free; older epochs must still be inside grace; newer epochs
// (peer rekeyed first) are derived on demand into the ahead set WITHOUT
// advancing cur — an unauthenticated nonce header must never drive key state.
func (s *Session) epochForOpen(n uint32) (*epoch, error) {
	if cur := s.cur.Load(); n == cur.n {
		return cur, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	switch {
	case n == cur.n:
		return cur, nil
	case n < cur.n:
		ep := s.old[n]
		if ep == nil {
			return nil, ErrStaleEpoch
		}
		ep.mu.Lock()
		expired := time.Since(ep.retiredAt) > s.grace
		ep.mu.Unlock()
		if expired {
			delete(s.old, n)
			return nil, ErrStaleEpoch
		}
		return ep, nil
	default:
		if n-cur.n > maxEpochAhead {
			return nil, fmt.Errorf("session: record claims epoch %d, %d ahead of current %d: %w", n, n-cur.n, cur.n, aead.ErrAuth)
		}
		ep := s.ahead[n]
		if ep == nil {
			var err error
			ep, err = s.newEpoch(n)
			if err != nil {
				return nil, err
			}
			s.ahead[n] = ep
		}
		return ep, nil
	}
}

// admit runs the post-authentication replay check for (src, seq) within ep.
// It must come after a successful OpenAAD: only genuine records may advance
// the window, or garbage could burn sequence space.
func (ep *epoch) admit(src int, seq uint64) bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	w := ep.windows[src]
	if w == nil {
		w = &replayWindow{}
		ep.windows[src] = w
	}
	return w.admit(seq)
}
