package session

import (
	"bytes"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encmpi/internal/aead"
	"encmpi/internal/aead/codecs"
	"encmpi/internal/mpi"
)

func testKey(b byte) []byte { return bytes.Repeat([]byte{b}, 32) }

func newTestSession(t testing.TB, cfg Config) *Session {
	t.Helper()
	if cfg.Build == nil {
		cfg.Build = func(k []byte) (aead.Codec, error) { return codecs.New("aesstd", k) }
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// sealCtx and openCtx are the pooled (nil-destination) forms of the engine
// contract's two calls.
func sealCtx(e *Engine, plain mpi.Buffer, ctx *RecordCtx) mpi.Buffer {
	wire, _ := e.SealTo(nil, nil, plain, *ctx)
	return wire
}

func openCtx(e *Engine, wire mpi.Buffer, ctx *RecordCtx) (mpi.Buffer, error) {
	return e.OpenTo(nil, nil, wire, *ctx)
}

func TestSealOpenRoundtrip(t *testing.T) {
	s := newTestSession(t, Config{Key: testKey(1)})
	e := s.Engine()
	ctx := &RecordCtx{Op: OpP2P, Src: 0, Dst: 3, Tag: 7}
	msg := []byte("bound to its context")
	wire := sealCtx(e, mpi.Bytes(msg), ctx)
	if wire.Len() != len(msg)+aead.Overhead {
		t.Fatalf("wire length %d, want %d", wire.Len(), len(msg)+aead.Overhead)
	}
	got, err := openCtx(e, wire, &RecordCtx{Op: OpP2P, Src: 0, Dst: 3, Tag: 7})
	if err != nil {
		t.Fatalf("OpenTo: %v", err)
	}
	if !bytes.Equal(got.Data, msg) {
		t.Fatalf("plaintext mismatch: %q", got.Data)
	}

	// In-place path, fresh record (the first is now in the replay window).
	wire2 := sealCtx(e, mpi.Bytes(msg), ctx)
	dst := make([]byte, len(msg))
	into, err := e.OpenTo(nil, dst, wire2, *ctx)
	if err != nil || into.Len() != len(msg) || !bytes.Equal(dst, msg) {
		t.Fatalf("OpenTo(dst): n=%d err=%v dst=%q", into.Len(), err, dst)
	}
}

// Every AAD field must flip authentication when the receiver derives a
// different context than the sealer bound.
func TestContextMismatchRejects(t *testing.T) {
	s := newTestSession(t, Config{Key: testKey(2)})
	e := s.Engine()
	base := RecordCtx{Op: OpP2P, Src: 0, Dst: 2, Tag: 9, Chunk: 3, Chunks: 8}

	mutations := map[string]func(*RecordCtx){
		"op":     func(c *RecordCtx) { c.Op = OpBcast },
		"src":    func(c *RecordCtx) { c.Src = 1 }, // early nonce-vs-match reject
		"dst":    func(c *RecordCtx) { c.Dst = 5 },
		"tag":    func(c *RecordCtx) { c.Tag = 10 },
		"chunk":  func(c *RecordCtx) { c.Chunk = 4 },
		"chunks": func(c *RecordCtx) { c.Chunks = 9 },
	}
	for name, mutate := range mutations {
		ctx := base
		wire := sealCtx(e, mpi.Bytes([]byte("payload")), &ctx)
		bad := base
		mutate(&bad)
		if _, err := openCtx(e, wire, &bad); !errors.Is(err, aead.ErrAuth) {
			t.Errorf("%s mismatch: got %v, want auth failure", name, err)
		}
		// The honest context still opens: the rejection above must not have
		// advanced the replay window.
		if _, err := openCtx(e, wire, &ctx); err != nil {
			t.Errorf("%s: honest open after rejected mismatch: %v", name, err)
		}
	}
}

func TestCrossSessionSpliceRejected(t *testing.T) {
	a := newTestSession(t, Config{Key: testKey(3)})
	b := newTestSession(t, Config{Key: testKey(4)})
	ctx := RecordCtx{Op: OpP2P, Src: 0, Dst: 1, Tag: 0}
	wire := sealCtx(a.Engine(), mpi.Bytes([]byte("session A")), &ctx)
	if _, err := openCtx(b.Engine(), wire, &ctx); !errors.Is(err, aead.ErrAuth) {
		t.Fatalf("cross-session open: got %v, want auth failure", err)
	}
}

func TestReplayRejected(t *testing.T) {
	s := newTestSession(t, Config{Key: testKey(5)})
	e := s.Engine()
	ctx := RecordCtx{Op: OpP2P, Src: 0, Dst: 1}
	wire := sealCtx(e, mpi.Bytes([]byte("once")), &ctx)
	if _, err := openCtx(e, wire, &ctx); err != nil {
		t.Fatalf("first open: %v", err)
	}
	_, err := openCtx(e, wire, &ctx)
	if !errors.Is(err, ErrReplay) || !errors.Is(err, aead.ErrAuth) {
		t.Fatalf("second open: got %v, want ErrReplay wrapping ErrAuth", err)
	}
}

// Rekey keeps the retired epoch open for the grace window (drain), then
// rejects it as stale.
func TestRekeyGraceThenStale(t *testing.T) {
	s := newTestSession(t, Config{Key: testKey(6), Grace: 50 * time.Millisecond})
	e := s.Engine()
	ctx := RecordCtx{Op: OpP2P, Src: 0, Dst: 1}
	inflight := sealCtx(e, mpi.Bytes([]byte("epoch 0, in flight")), &ctx)

	if err := s.Rekey(); err != nil {
		t.Fatalf("Rekey: %v", err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("Epoch after rekey = %d, want 1", s.Epoch())
	}
	// In-flight epoch-0 traffic drains inside grace.
	if _, err := openCtx(e, inflight, &ctx); err != nil {
		t.Fatalf("open in-flight epoch-0 record inside grace: %v", err)
	}
	// New seals use epoch 1 and open fine.
	w1 := sealCtx(e, mpi.Bytes([]byte("epoch 1")), &ctx)
	if _, e0, _ := parseNonce(w1.Data); e0 != 1 {
		t.Fatalf("new record sealed under epoch %d, want 1", e0)
	}
	if _, err := openCtx(e, w1, &ctx); err != nil {
		t.Fatalf("open epoch-1 record: %v", err)
	}

	// Past grace, epoch-0 records reject hard (fresh session so the record
	// is neither a replay nor already pruned).
	s2 := newTestSession(t, Config{Key: testKey(6), Grace: 50 * time.Millisecond})
	old := sealCtx(s2.Engine(), mpi.Bytes([]byte("will go stale")), &ctx)
	if err := s2.Rekey(); err != nil {
		t.Fatalf("Rekey: %v", err)
	}
	time.Sleep(80 * time.Millisecond)
	_, err := openCtx(s2.Engine(), old, &ctx)
	if !errors.Is(err, ErrStaleEpoch) || !errors.Is(err, aead.ErrAuth) {
		t.Fatalf("open past grace: got %v, want ErrStaleEpoch wrapping ErrAuth", err)
	}
}

func TestNoGraceRejectsImmediately(t *testing.T) {
	s := newTestSession(t, Config{Key: testKey(7), Grace: -1})
	e := s.Engine()
	ctx := RecordCtx{Op: OpP2P, Src: 0, Dst: 1}
	wire := sealCtx(e, mpi.Bytes([]byte("no grace")), &ctx)
	if err := s.Rekey(); err != nil {
		t.Fatalf("Rekey: %v", err)
	}
	if _, err := openCtx(e, wire, &ctx); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("open with no grace: got %v, want ErrStaleEpoch", err)
	}
}

// A peer that rekeyed first is legitimately ahead: its records open against a
// derived-on-demand epoch without advancing the local seal epoch, and the
// replay state carries over when the local side catches up.
func TestAheadEpochPromotion(t *testing.T) {
	key := testKey(8)
	local := newTestSession(t, Config{Key: key})
	peer := newTestSession(t, Config{Key: key})
	if err := peer.Rekey(); err != nil {
		t.Fatalf("peer Rekey: %v", err)
	}
	ctx := RecordCtx{Op: OpP2P, Src: 0, Dst: 1}
	wire := sealCtx(peer.Engine(), mpi.Bytes([]byte("from the future")), &ctx)

	if _, err := openCtx(local.Engine(), wire, &ctx); err != nil {
		t.Fatalf("open ahead-epoch record: %v", err)
	}
	if local.Epoch() != 0 {
		t.Fatalf("opening an ahead record advanced the seal epoch to %d", local.Epoch())
	}

	// Catch up: the promoted epoch must remember the admitted seq.
	if err := local.Rekey(); err != nil {
		t.Fatalf("local Rekey: %v", err)
	}
	if _, err := openCtx(local.Engine(), wire, &ctx); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay across promotion: got %v, want ErrReplay", err)
	}
}

// An attacker flipping nonce epoch bytes must not make the receiver derive
// unbounded key material: records too far ahead reject before the cipher.
func TestEpochAheadBound(t *testing.T) {
	key := testKey(9)
	local := newTestSession(t, Config{Key: key})
	peer := newTestSession(t, Config{Key: key})
	for i := 0; i <= maxEpochAhead; i++ {
		if err := peer.Rekey(); err != nil {
			t.Fatalf("peer Rekey %d: %v", i, err)
		}
	}
	ctx := RecordCtx{Op: OpP2P, Src: 0, Dst: 1}
	wire := sealCtx(peer.Engine(), mpi.Bytes([]byte("too far")), &ctx)
	if _, err := openCtx(local.Engine(), wire, &ctx); !errors.Is(err, aead.ErrAuth) {
		t.Fatalf("open %d epochs ahead: got %v, want auth failure", maxEpochAhead+1, err)
	}
}

// Two instances built from the same key agree on everything without talking:
// id, lane, and the whole key schedule.
func TestDeterministicDerivation(t *testing.T) {
	key := testKey(10)
	a := newTestSession(t, Config{Key: key})
	b := newTestSession(t, Config{Key: key})
	if a.ID() != b.ID() || a.ID() == 0 {
		t.Fatalf("ids disagree: %x vs %x", a.ID(), b.ID())
	}
	if a.Lane() != b.Lane() || a.Lane() == 0 {
		t.Fatalf("lanes disagree (or legacy): %d vs %d", a.Lane(), b.Lane())
	}
	ctx := RecordCtx{Op: OpAlltoall, Src: 2, Dst: 5, Tag: 1}
	wire := sealCtx(a.Engine(), mpi.Bytes([]byte("derived twice")), &ctx)
	if _, err := openCtx(b.Engine(), wire, &ctx); err != nil {
		t.Fatalf("peer open: %v", err)
	}

	// Distinct keys must land on distinct ids (and almost surely lanes).
	c := newTestSession(t, Config{Key: testKey(11)})
	if c.ID() == a.ID() {
		t.Fatalf("distinct keys derived the same session id %x", a.ID())
	}
}

func TestCCMRejected(t *testing.T) {
	_, err := New(Config{
		Key:   testKey(12),
		Build: func(k []byte) (aead.Codec, error) { return codecs.New("ccmsoft", k) },
	})
	if err == nil {
		t.Fatal("New accepted a CCM codec; sessions require AAD support")
	}
}

func TestAttachValidation(t *testing.T) {
	s := newTestSession(t, Config{Key: testKey(13)})
	if err := s.Attach(maxNonceRank+1, 4, nil); err == nil {
		t.Fatal("Attach accepted a rank outside the nonce's source field")
	}
	if err := s.Attach(1, 4, nil); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := s.Attach(1, 4, nil); err == nil {
		t.Fatal("second Attach accepted; a session is one endpoint")
	}
}

func TestAutoRekey(t *testing.T) {
	s := newTestSession(t, Config{Key: testKey(14), RekeyEvery: 10 * time.Millisecond})
	e := s.Engine()
	ctx := RecordCtx{Op: OpP2P, Src: 0, Dst: 1}
	sealCtx(e, mpi.Bytes([]byte("epoch 0")), &ctx).Release()
	time.Sleep(25 * time.Millisecond)
	w := sealCtx(e, mpi.Bytes([]byte("rolled")), &ctx)
	if _, ep, _ := parseNonce(w.Data); ep == 0 {
		t.Fatal("seal after RekeyEvery elapsed still used epoch 0")
	}
}

func TestReplayWindow(t *testing.T) {
	var w replayWindow
	if w.admit(0) {
		t.Fatal("seq 0 admitted; counters start at 1")
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if !w.admit(seq) {
			t.Fatalf("fresh seq %d rejected", seq)
		}
		if w.admit(seq) {
			t.Fatalf("duplicate seq %d admitted", seq)
		}
	}
	// Out-of-order inside the window.
	if !w.admit(40) || !w.admit(38) || w.admit(38) {
		t.Fatal("window mishandled out-of-order admits")
	}
	// Exactly 64 behind the top falls off the window.
	if !w.admit(100) {
		t.Fatal("fresh top rejected")
	}
	if w.admit(36) {
		t.Fatal("seq 64 behind top admitted")
	}
	if !w.admit(37) {
		t.Fatal("seq 63 behind top (unseen) rejected")
	}
	// A jump of ≥64 resets the mask.
	if !w.admit(1000) || w.admit(1000) || !w.admit(999) {
		t.Fatal("window mishandled a large jump")
	}
}

// FuzzSessionAAD drives the seal/open pair with arbitrary payloads and
// context fields, checking the three invariants the AAD binding promises:
// a mismatched context rejects, the honest context opens exactly once, and
// any single-byte wire tamper rejects.
func FuzzSessionAAD(f *testing.F) {
	f.Add([]byte("hello"), 1, 7, 0, 0, uint8(1), uint8(0), uint8(2))
	f.Add([]byte{}, -1, 0, 0, 0, uint8(2), uint8(3), uint8(11))
	f.Add([]byte("chunked segment payload"), 3, 99, 2, 8, uint8(1), uint8(4), uint8(40))
	f.Add(bytes.Repeat([]byte{0xA5}, 300), 0, -12345, 1, 2, uint8(4), uint8(5), uint8(0))

	key := testKey(42)
	f.Fuzz(func(t *testing.T, plain []byte, dst, tag, chunk, chunks int, op, mutate, flip uint8) {
		s, err := New(Config{
			Key:   key,
			Build: func(k []byte) (aead.Codec, error) { return codecs.New("aesstd", k) },
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		e := s.Engine()
		ctx := RecordCtx{
			// A routine-bound class: OpRaw is the context-free form, whose
			// other fields are ignored rather than authenticated.
			Op:     Op(1 + op%5),
			Src:    0, // sealState pins the nonce source to the session rank
			Dst:    dst,
			Tag:    tag,
			Chunk:  chunk,
			Chunks: chunks,
		}
		wire := sealCtx(e, mpi.Bytes(plain), &ctx)

		// 1. A context differing in one field must reject (skip mutations
		// that collapse onto the sealed value).
		bad := ctx
		switch mutate % 6 {
		case 0:
			bad.Op = Op(1 + (op+1)%5)
		case 1:
			bad.Src = 1
		case 2:
			bad.Dst++
		case 3:
			bad.Tag++
		case 4:
			bad.Chunk++
		case 5:
			bad.Chunks++
		}
		if _, err := openCtx(e, wire, &bad); !errors.Is(err, aead.ErrAuth) {
			t.Fatalf("mutated context (case %d) opened: %v", mutate%6, err)
		}

		// 2. A tampered wire byte must reject under the honest context.
		tampered := mpi.Bytes(append([]byte(nil), wire.Data...))
		tampered.Data[int(flip)%len(tampered.Data)] ^= 0x01
		if _, err := openCtx(e, tampered, &ctx); !errors.Is(err, aead.ErrAuth) {
			t.Fatalf("tampered wire opened: %v", err)
		}

		// 3. The honest context opens the genuine record — the rejections
		// above must not have burned its sequence number — and only once.
		got, err := openCtx(e, wire, &ctx)
		if err != nil {
			t.Fatalf("honest open: %v", err)
		}
		if !bytes.Equal(got.Data, plain) {
			t.Fatalf("plaintext mismatch: %q != %q", got.Data, plain)
		}
		if _, err := openCtx(e, wire, &ctx); !errors.Is(err, ErrReplay) {
			t.Fatalf("replay: got %v, want ErrReplay", err)
		}
	})
}

// TestSealRacesRekey covers what the session mutex used to give the record
// path and the atomic current-epoch pointer must still give: with two
// goroutines sealing while a third rolls the epoch in a loop, no
// (epoch, src, seq) nonce is ever issued twice, and every record — whichever
// epoch its sealer caught — opens, the retired ones inside the grace window.
// Run with -race.
func TestSealRacesRekey(t *testing.T) {
	const sealers, perSealer, rekeys = 2, 1000, 300
	s := newTestSession(t, Config{Key: testKey(9), Grace: time.Minute})
	if err := s.Attach(3, 8, nil); err != nil {
		t.Fatal(err)
	}
	e := s.Engine()
	ctx := RecordCtx{Op: OpP2P, Src: 3, Dst: 1, Tag: 5}
	msg := mpi.Bytes([]byte("sealed while the epoch rolls"))

	// The sealers seal from before the first roll until after the last one
	// (each seals once more after seeing it), so the records span epochs
	// however the goroutines are scheduled.
	first := make(chan struct{})
	var firstOnce sync.Once
	var rolled atomic.Bool
	var sealing sync.WaitGroup
	sealed := make([][]mpi.Buffer, sealers)
	for g := range sealed {
		sealing.Add(1)
		go func() {
			defer sealing.Done()
			for i, last := 0, false; !last; i++ {
				last = i >= perSealer && rolled.Load()
				w, _ := e.SealTo(nil, nil, msg, ctx)
				sealed[g] = append(sealed[g], w)
				firstOnce.Do(func() { close(first) })
			}
		}()
	}
	<-first
	for n := 0; n < rekeys; n++ {
		if err := s.Rekey(); err != nil {
			t.Fatal(err)
		}
	}
	rolled.Store(true)
	sealing.Wait()

	// Open in (epoch, seq) order: the replay window tolerates 64 records of
	// reordering per source, and two free-running sealers exceed that.
	var wires []mpi.Buffer
	for _, ws := range sealed {
		wires = append(wires, ws...)
	}
	sort.Slice(wires, func(i, j int) bool {
		return bytes.Compare(wires[i].Data[2:aead.NonceSize], wires[j].Data[2:aead.NonceSize]) < 0
	})
	epochs := make(map[uint32]bool)
	for i, w := range wires {
		if i > 0 && bytes.Equal(w.Data[:aead.NonceSize], wires[i-1].Data[:aead.NonceSize]) {
			t.Fatalf("nonce %x issued twice", w.Data[:aead.NonceSize])
		}
		_, epoch, _ := parseNonce(w.Data)
		epochs[epoch] = true
		plain, err := e.OpenTo(nil, nil, w, ctx)
		if err != nil {
			t.Fatalf("record of epoch %d did not open (current epoch %d): %v", epoch, s.Epoch(), err)
		}
		plain.Release()
		w.Release()
	}
	if len(epochs) < 2 {
		t.Errorf("%d records under %d epochs: the race was not exercised", len(wires), len(epochs))
	}
}
