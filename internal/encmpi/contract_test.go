package encmpi_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"encmpi/internal/aead"
	"encmpi/internal/bufpool"
	"encmpi/internal/encmpi"
	"encmpi/internal/mpi"
	"encmpi/internal/obs"
	"encmpi/internal/sched"
	"encmpi/internal/session"
)

// clockProc is a proc whose only behaviour is its virtual clock: the model
// engine's charges are visible as Now() moving.
type clockProc struct{ now time.Duration }

func (p *clockProc) Now() time.Duration      { return p.now }
func (p *clockProc) Advance(d time.Duration) { p.now += d }
func (p *clockProc) Park()                   {}
func (p *clockProc) Unpark()                 {}

// contractEngine is one row of the conformance table.
type contractEngine struct {
	name string
	eng  encmpi.Engine
	// auth: a flipped wire bit must fail with aead.ErrAuth.
	auth bool
	// real: synthetic plaintext is materialized as zeros (real bytes come
	// back); the others keep synthetic buffers synthetic.
	real bool
	proc sched.Proc
	// accounted returns a number that moves whenever the engine accounts a
	// seal or an open (virtual time, session counters); nil when the buffer
	// pool balance is the engine's only observable side effect.
	accounted func() int64
}

func contractEngines(t *testing.T) []contractEngine {
	t.Helper()
	spec := func(s encmpi.EngineSpec) encmpi.Engine {
		eng, err := encmpi.NewEngine(s)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	reg := obs.NewRegistry(2)
	sess := sessionEngine(t, session.Config{Key: testKey}, 0, 2, reg.Session("contract"))
	clock := &clockProc{}
	return []contractEngine{
		{name: "null", eng: spec(encmpi.EngineSpec{Kind: "null"})},
		{name: "model", proc: clock, accounted: func() int64 { return int64(clock.now) },
			eng: spec(encmpi.EngineSpec{Kind: "model", Library: "boringssl", Variant: "gcc485", KeyBits: 256})},
		{name: "real", auth: true, real: true,
			eng: spec(encmpi.EngineSpec{Kind: "real", Codec: "aesstd", Key: testKey})},
		{name: "parallel", auth: true, real: true,
			eng: spec(encmpi.EngineSpec{Kind: "parallel", Codec: "aesstd", Key: testKey, Workers: 4, Chunk: 64 << 10})},
		{name: "session", auth: true, real: true, eng: sess, accounted: func() int64 {
			s := reg.Snapshot().Sessions[0]
			return int64(s.Sealed + s.Opened + s.AuthFailures)
		}},
		{name: "hear-over-real", auth: true, real: true,
			eng: spec(encmpi.EngineSpec{Kind: "hear", Codec: "aesstd", Key: testKey})},
	}
}

// The destination kinds of the table, in the order TestEngineContract names
// them.
const (
	dstNil = iota
	dstExact
	dstShort
)

// outstanding is the number of pool leases currently held.
func outstanding() int64 {
	s := bufpool.Stats()
	return int64(s.Gets) - int64(s.Puts)
}

// aliases reports whether b's bytes are dst's own storage.
func aliases(b mpi.Buffer, dst []byte) bool {
	return b.Len() == 0 || (len(dst) > 0 && &b.Data[0] == &dst[0])
}

// TestEngineContract holds every engine to the one Engine contract
// (DESIGN.md §7.1): wire length, round trip, the optional destination's
// land-or-report rule, the optional record context, the shorthands, bit-flip
// rejection, and lease balance.
func TestEngineContract(t *testing.T) {
	payloads := []struct {
		name  string
		plain mpi.Buffer
	}{
		{"empty", mpi.Bytes([]byte{})},
		{"1B", mpi.Bytes([]byte{0x5A})},
		{"4KiB", mpi.Bytes(patterned(4 << 10))},
		{"300KiB", mpi.Bytes(patterned(300 << 10))},
		{"synthetic", mpi.Synthetic(4 << 10)},
	}
	ctxs := []struct {
		name string
		ctx  session.RecordCtx
	}{
		{"raw", session.RecordCtx{}},
		{"p2p", session.RecordCtx{Op: session.OpP2P, Src: 0, Dst: 1, Tag: 5}},
	}
	for _, ce := range contractEngines(t) {
		for _, pl := range payloads {
			for dstKind, dstName := range []string{"nil", "exact", "short"} {
				for _, cx := range ctxs {
					ce, pl, dstKind, cx := ce, pl, dstKind, cx
					t.Run(fmt.Sprintf("%s/%s/dst-%s/%s", ce.name, pl.name, dstName, cx.name), func(t *testing.T) {
						checkContract(t, ce, pl.plain, dstKind, cx.ctx)
					})
				}
			}
		}
	}
}

func checkContract(t *testing.T, ce contractEngine, plain mpi.Buffer, dstKind int, ctx session.RecordCtx) {
	eng, n := ce.eng, plain.Len()
	startLeases := outstanding()
	account := func() int64 {
		if ce.accounted == nil {
			return 0
		}
		return ce.accounted()
	}
	// dstFor sizes a destination of the kind under test for a want-byte
	// result; nil for the nil kind, and for a short one that cannot exist.
	dstFor := func(want int) []byte {
		switch {
		case dstKind == dstExact:
			return make([]byte, want)
		case dstKind == dstShort && want > 0:
			return make([]byte, want-1)
		}
		return nil
	}

	// Seal. A declined in-place seal must leave no trace; the record is then
	// sealed the ordinary way, as the communicator would.
	sdst := dstFor(eng.WireLen(n))
	before := account()
	wire, ok := eng.SealTo(ce.proc, sdst, plain, ctx)
	switch {
	case sdst == nil && !ok:
		t.Fatal("a nil-destination seal was declined")
	case sdst != nil && dstKind == dstShort && ok:
		t.Fatal("sealed into a destination one byte too small")
	case ok && sdst != nil && !aliases(wire, sdst):
		t.Error("in-place seal did not land in dst")
	}
	if !ok {
		if account() != before || outstanding() != startLeases {
			t.Error("a declined seal was accounted")
		}
		wire, _ = eng.SealTo(ce.proc, nil, plain, ctx)
	}
	if wire.Len() != eng.WireLen(n) {
		t.Fatalf("wire is %d bytes, WireLen(%d) = %d", wire.Len(), n, eng.WireLen(n))
	}

	// A one-bit flip fails authentication — before the genuine open, so a
	// session's replay window must not have admitted anything for it.
	if ce.auth {
		bad := mpi.Bytes(bytes.Clone(wire.Data))
		bad.Data[len(bad.Data)/2] ^= 0x10
		if _, err := eng.OpenTo(ce.proc, nil, bad, ctx); !errors.Is(err, aead.ErrAuth) {
			t.Errorf("flipped bit: %v, want aead.ErrAuth", err)
		}
	}

	// Open. A destination that cannot hold the plaintext is reported with
	// nothing accounted — the record must still open afterwards.
	odst := dstFor(n)
	lands := !wire.IsSynthetic() // null/model cannot land a synthetic wire
	before, beforeLeases := account(), outstanding()
	got, err := eng.OpenTo(ce.proc, odst, wire, ctx)
	if odst != nil && (dstKind == dstShort || !lands) {
		if err == nil {
			t.Fatal("opened into a destination that cannot hold the plaintext")
		}
		if account() != before || outstanding() != beforeLeases {
			t.Error("a refused in-place open was accounted")
		}
		got, err = eng.OpenTo(ce.proc, nil, wire, ctx)
	}
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if odst != nil && dstKind == dstExact && lands && !aliases(got, odst) {
		t.Error("in-place open did not land in dst")
	}
	switch {
	case got.Len() != n:
		t.Errorf("round trip returned %d bytes, want %d", got.Len(), n)
	case plain.IsSynthetic() && !ce.real:
		if !got.IsSynthetic() {
			t.Error("a modeled synthetic payload came back as real bytes")
		}
	case plain.IsSynthetic():
		if !bytes.Equal(got.Data, make([]byte, n)) {
			t.Error("a materialized synthetic payload is not all zeros")
		}
	case !bytes.Equal(got.Data, plain.Data):
		t.Error("round trip corrupted the payload")
	}
	got.Release()
	if !got.SharesStorage(wire) {
		wire.Release()
	}

	// The shorthands are the full calls with a nil destination and the zero
	// context: records sealed by one open through the other.
	w1 := eng.Seal(ce.proc, plain)
	w2, _ := eng.SealTo(ce.proc, nil, plain, session.RecordCtx{})
	p1, err1 := eng.OpenTo(ce.proc, nil, w1, session.RecordCtx{})
	p2, err2 := eng.Open(ce.proc, w2)
	if err1 != nil || err2 != nil || p1.Len() != n || p2.Len() != n || w1.Len() != w2.Len() {
		t.Errorf("shorthand mismatch: %v / %v, %d / %d plaintext bytes, %d / %d wire bytes",
			err1, err2, p1.Len(), p2.Len(), w1.Len(), w2.Len())
	}
	for _, pair := range [][2]mpi.Buffer{{p1, w1}, {p2, w2}} {
		pair[0].Release()
		if !pair[0].SharesStorage(pair[1]) {
			pair[1].Release()
		}
	}

	if end := outstanding(); end != startLeases {
		t.Errorf("%d pool leases outstanding, started with %d", end, startLeases)
	}
}
