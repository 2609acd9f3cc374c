package encmpi

import (
	"fmt"

	"encmpi/internal/aead"
	"encmpi/internal/aead/codecs"
	"encmpi/internal/costmodel"
	"encmpi/internal/hear"
)

// EngineSpec is the declarative description of a crypto engine. It replaces
// the hand-rolled wiring that used to be duplicated across the cmds and the
// fault sweep: one struct names the engine kind and its parameters, and
// NewEngine turns it into a ready engine.
type EngineSpec struct {
	// Kind selects the engine family: "null" (pass-through baseline),
	// "real" (byte-level AEAD), "parallel" (chunked multi-worker AEAD),
	// "model" (virtual-time cost model of one of the paper's C libraries),
	// or "hear" (additive-noise reductions over an inner AEAD engine for
	// everything else — integrity-free; see DESIGN.md §16).
	Kind string

	// Codec and Key configure the real and parallel kinds. Codec is a
	// registered AEAD name ("aesstd", "aessoft", "aesref", "ccmsoft",
	// "ccmref"); Key is the 16/24/32-byte AES key.
	Codec string
	Key   []byte
	// NoncePrefix seeds the counter nonce source; it must be unique per
	// rank sharing a key (use the rank).
	NoncePrefix uint32

	// Workers and Chunk configure the parallel kind (zero values mean
	// GOMAXPROCS workers and the default 128 KiB chunk).
	Workers int
	Chunk   int

	// Library, Variant, and KeyBits configure the model kind ("boringssl",
	// "openssl", "libsodium", "cryptopp"; "gcc485" or "mvapich"; 128/256).
	// Threads models parallel encryption (§V-C); 0 or 1 is single-threaded.
	Library string
	Variant string
	KeyBits int
	Threads int

	// HearSeedSpace bounds the per-rank seed keys of the hear kind
	// (0 means hear.DefaultSeedSpace). The hear kind also reads Workers and
	// Chunk for its keystream fan-out, and picks its inner AEAD engine from
	// the other fields: Library set selects the model engine, else Codec set
	// selects the real engine, else the null engine.
	HearSeedSpace int
}

// NewEngine builds the engine an EngineSpec describes.
func NewEngine(spec EngineSpec) (Engine, error) {
	var eng Engine
	switch spec.Kind {
	case "null", "", "none":
		eng = NullEngine{}
	case "real":
		codec, err := codecs.New(spec.Codec, spec.Key)
		if err != nil {
			return nil, fmt.Errorf("encmpi: engine spec: %w", err)
		}
		eng = NewRealEngine(codec, aead.NewCounterNonce(spec.NoncePrefix))
	case "parallel":
		codec, err := codecs.New(spec.Codec, spec.Key)
		if err != nil {
			return nil, fmt.Errorf("encmpi: engine spec: %w", err)
		}
		pe := NewParallelEngine(codec, aead.NewCounterNonce(spec.NoncePrefix), spec.Workers)
		if spec.Chunk > 0 {
			pe.Chunk = spec.Chunk
		}
		eng = pe
	case "model":
		p, err := costmodel.Lookup(spec.Library, costmodel.Variant(spec.Variant), spec.KeyBits)
		if err != nil {
			return nil, fmt.Errorf("encmpi: engine spec: %w", err)
		}
		me := NewModelEngine(p)
		if spec.Threads > 1 {
			me.Threads = spec.Threads
		}
		eng = me
	case "hear":
		// The inner engine protects the ceremony and all non-reduction
		// routines.
		inner := spec
		switch {
		case spec.Library != "":
			inner.Kind = "model"
		case spec.Codec != "":
			inner.Kind = "real"
		default:
			inner.Kind = "null"
		}
		ie, err := NewEngine(inner)
		if err != nil {
			return nil, fmt.Errorf("encmpi: hear inner engine: %w", err)
		}
		return &HearEngine{
			Engine: ie,
			Params: hear.Params{
				SeedSpace: uint64(spec.HearSeedSpace),
				Workers:   spec.Workers,
				Chunk:     spec.Chunk,
			},
		}, nil
	default:
		return nil, fmt.Errorf("encmpi: unknown engine kind %q (want null, real, parallel, model, or hear)", spec.Kind)
	}
	return eng, nil
}
