package encmpi_test

import (
	"bytes"
	"encoding/hex"
	"testing"

	"encmpi/internal/encmpi"
	"encmpi/internal/mpi"
	"encmpi/internal/session"
)

// TestGoldenWire pins the wire format byte for byte: one fixed (key, context,
// plaintext) per engine kind, sealed by a fresh engine, must reproduce the
// bytes recorded at PR 13 (before the one-contract refactor) — the session
// nonce layout src(2)‖epoch(2)‖seq(8) and its 45-byte AAD, the counter nonce
// of the real engine, the parallel engine's per-chunk framing, the model
// engine's 28-byte pad — and the recorded bytes must still open.
func TestGoldenWire(t *testing.T) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i*7 + 1)
	}
	pt := make([]byte, 40)
	for i := range pt {
		pt[i] = byte(0xA0 + i)
	}
	const realWire = "00000007000000000000000098ebc5dfe6b8891c39d4e6fa1ef4b1f9f8b8ff484bb27c0b8b1ce22d5a9b61ffbd945d0dd7d2a134cdf0c1464850fb63a4900635ee124ec6"
	fromSpec := func(spec encmpi.EngineSpec) func(*testing.T) encmpi.Engine {
		return func(t *testing.T) encmpi.Engine {
			eng, err := encmpi.NewEngine(spec)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
	}
	newSession := func(t *testing.T) encmpi.Engine {
		return sessionEngine(t, session.Config{Key: key, ID: 0x1122334455667788}, 3, 8, nil)
	}
	p2p := session.RecordCtx{Op: session.OpP2P, Src: 3, Dst: 5, Tag: 9, Chunk: 1, Chunks: 4}
	bcast := session.RecordCtx{Op: session.OpBcast, Src: 3, Dst: session.Wildcard, Tag: 2}
	// goldenSeal is one recorded seal. The seals of a case are made in order
	// on one engine (sequence numbers and counter nonces advance); inPlace
	// seals into an exact-size dst.
	type goldenSeal struct {
		ctx     session.RecordCtx
		inPlace bool
		want    string
	}
	for _, tc := range []struct {
		name  string
		mk    func(*testing.T) encmpi.Engine
		seals []goldenSeal
	}{
		{"real", fromSpec(encmpi.EngineSpec{Kind: "real", Codec: "aesstd", Key: key, NoncePrefix: 7}), []goldenSeal{{want: realWire}}},
		{"hear-over-real", fromSpec(encmpi.EngineSpec{Kind: "hear", Codec: "aesstd", Key: key, NoncePrefix: 7}), []goldenSeal{{want: realWire}}},
		{"parallel", fromSpec(encmpi.EngineSpec{Kind: "parallel", Codec: "aesstd", Key: key, NoncePrefix: 7, Workers: 2, Chunk: 16}), []goldenSeal{{want: "00000007000000000000000098ebc5dfe6b8891c39d4e6fa1ef4b1f9833be1bf9df960c6fccd7c2510ba00410000000700000000000000011b210c1749be7081ed8d08e35d70663d8cb5bb5f2f0da5aca129b25d9303960d000000070000000000000002c781d4cf7baeda2e55862a3609547b8040af649814e3a184"}}},
		{"model", fromSpec(encmpi.EngineSpec{Kind: "model", Library: "boringssl", Variant: "gcc485", KeyBits: 256}), []goldenSeal{{want: "a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c700000000000000000000000000000000000000000000000000000000"}}},
		{"null", fromSpec(encmpi.EngineSpec{Kind: "null"}), []goldenSeal{{want: hex.EncodeToString(pt)}}},
		{"session", newSession, []goldenSeal{
			{ctx: p2p, want: "00030000000000000000000199c8c4b88b2e518cefbbd118dca295bc628c74aff869f27eefbcbb4c47a5e6bb187f96951f3d5d420ac8de274cc0f51936fefa39e00a3719"},
			{want: "0003000000000000000000024503c8d1e64dd96d8f49eab2066b80bec77dce5e734d7439814c79a5a6938bc9fff8121d2244aac14638929f2637d6718b793643fd00eb99"},
			{ctx: bcast, inPlace: true, want: "000300000000000000000003d56d96aae544b1074bf82ff03e4922cc299958ad4cea7f3725dc24f8e6047b96cc3d9348337f729c54c0577311be2ac71bc790b2e0cc913f"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sealer, opener := tc.mk(t), tc.mk(t)
			for i, s := range tc.seals {
				var dst []byte
				if s.inPlace {
					dst = make([]byte, sealer.WireLen(len(pt)))
				}
				wire, ok := sealer.SealTo(nil, dst, mpi.Bytes(pt), s.ctx)
				if !ok {
					t.Fatalf("seal %d declined", i)
				}
				if got := hex.EncodeToString(wire.Data); got != s.want {
					t.Errorf("seal %d:\n got %s\nwant %s", i, got, s.want)
				}
				golden, _ := hex.DecodeString(s.want)
				plain, err := opener.OpenTo(nil, nil, mpi.Bytes(golden), s.ctx)
				if err != nil || !bytes.Equal(plain.Data, pt) {
					t.Errorf("seal %d: recorded bytes do not open: %v", i, err)
				}
			}
		})
	}
}
