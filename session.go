package encmpi

import (
	"fmt"
	"time"

	"encmpi/internal/aead"
	"encmpi/internal/aead/codecs"
	"encmpi/internal/session"
)

// Session is a keyed security association with an epoch counter — the
// preferred way to encrypt a communicator (DESIGN.md §13). Every record a
// session seals authenticates its full communication context (session id,
// epoch, sender, receiver, routine, tag, sequence, chunk position) as AEAD
// additional data, so a replayed, cross-session-spliced, or reflected
// ciphertext fails authentication itself — no downstream heuristics.
// Sessions rekey without downtime: Rekey (or WithRekeyInterval) rolls to a
// fresh derived key while in-flight traffic from the previous epoch keeps
// opening for a bounded grace window.
//
// Each rank constructs its own Session from the shared master key inside the
// job body and attaches it to its communicator; the instances never talk to
// each other — agreement comes from the deterministic key schedule and AAD
// derivation. Multiple sessions (distinct keys) may run over one job's
// shared TCP connections: each travels on its own wire lane, and the wire
// engine interleaves lanes fairly at flush time.
//
//	sess, _ := encmpi.NewSession(key)
//	e, _ := sess.Attach(c)
//	e.Send(1, 0, encmpi.Bytes(secret))
type Session struct {
	s *session.Session
}

// SessionOption configures NewSession.
type SessionOption func(*sessionConfig)

type sessionConfig struct {
	codec      string
	id         uint64
	grace      time.Duration
	rekeyEvery time.Duration
}

// WithSessionCodec selects the AEAD implementation sessions derive their
// per-epoch codecs from ("aesstd" — the default — "aessoft", "aessoft8",
// "aesref"). The CCM tiers cannot authenticate additional data and are
// rejected by NewSession.
func WithSessionCodec(name string) SessionOption {
	return func(c *sessionConfig) { c.codec = name }
}

// WithSessionID overrides the session identifier authenticated into every
// record. The default — 0 — derives a stable id from the key, so peers
// constructing from the same key agree without coordination; set it
// explicitly when two sessions must share one key.
func WithSessionID(id uint64) SessionOption {
	return func(c *sessionConfig) { c.id = id }
}

// WithRekeyInterval rolls the session epoch automatically once the current
// epoch has sealed for d. d ≤ 0 disables automatic rekeying (the default);
// Rekey remains available either way.
func WithRekeyInterval(d time.Duration) SessionOption {
	return func(c *sessionConfig) { c.rekeyEvery = d }
}

// WithEpochGrace bounds how long a retired epoch keeps opening records after
// a rekey. The default (5s) covers the in-flight window of a chunked
// transfer mid-message; d ≤ 0 means no grace — records from a retired epoch
// reject immediately.
func WithEpochGrace(d time.Duration) SessionOption {
	if d <= 0 {
		d = -1
	}
	return func(c *sessionConfig) { c.grace = d }
}

// NewSession builds a session from a 16/24/32-byte master key (for example
// one distributed by ExchangeKey). Per-epoch AES keys are derived from it
// with HKDF-SHA256; the master itself never seals a record.
func NewSession(key []byte, opts ...SessionOption) (*Session, error) {
	cfg := sessionConfig{codec: "aesstd"}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	s, err := session.New(session.Config{
		Key:        key,
		Build:      func(k []byte) (aead.Codec, error) { return codecs.New(cfg.codec, k) },
		ID:         cfg.id,
		Grace:      cfg.grace,
		RekeyEvery: cfg.rekeyEvery,
	})
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// Attach binds the session to a communicator endpoint and returns the
// encrypted communicator whose records it seals. The session's traffic
// travels on its own wire lane, so several sessions can share one job's
// connections without their frames cross-matching. Options are as for
// Encrypt (WithMetrics, WithPipelineThreshold); when the job already carries
// a metrics registry the session's counters land there automatically.
//
// A Session is one endpoint's security association: attach it to exactly one
// communicator (construct one Session per rank, and per communicator).
func (s *Session) Attach(c *Comm, opts ...Option) (*EncryptedComm, error) {
	g := buildConfig(opts).metrics
	if g == nil {
		g = c.Registry()
	}
	if err := s.s.Attach(c.Rank(), c.Size(), g.Session(s.ScopeID())); err != nil {
		return nil, err
	}
	return EncryptWith(c.WithLane(s.s.Lane()), s.s.Engine(), opts...), nil
}

// Rekey rolls the session to the next epoch: new records seal under a fresh
// derived key immediately, while in-flight records from the retired epoch
// keep opening for the grace window. Both ends rekey independently — a
// record from a peer that rekeyed first opens against the derived-on-demand
// next epoch without advancing this end's seal epoch.
func (s *Session) Rekey() error { return s.s.Rekey() }

// Epoch returns the current seal epoch (0 until the first rekey).
func (s *Session) Epoch() uint32 { return s.s.Epoch() }

// Derivations returns the lifetime count of HKDF epoch-key derivations the
// session has run. It moves on NewSession, Rekey, and ahead-of-time epoch
// opens — never on steady-state traffic, which is what the persistent
// collectives' init-once/start-many contract pins in tests.
func (s *Session) Derivations() uint64 { return s.s.Derivations() }

// ID returns the session identifier authenticated into every record.
func (s *Session) ID() uint64 { return s.s.ID() }

// Lane returns the wire lane the session's frames travel on.
func (s *Session) Lane() uint16 { return s.s.Lane() }

// ScopeID is the key under which this session's counters appear in metrics
// snapshots (Snapshot.Sessions) and Prometheus output.
func (s *Session) ScopeID() string { return fmt.Sprintf("%016x", s.s.ID()) }

// Engine exposes the session's crypto engine for explicit wiring
// (EncryptWith); Attach is the ordinary path.
func (s *Session) Engine() Engine { return s.s.Engine() }
