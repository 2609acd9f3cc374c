// Package encmpi is a Go reproduction of "An Empirical Study of
// Cryptographic Libraries for MPI Communications" (IEEE CLUSTER 2019): an
// MPI-style message-passing runtime whose point-to-point and collective
// communication is protected with AES-GCM, a discrete-event cluster
// simulator calibrated to the paper's 10 GbE / 40 Gb InfiniBand testbed,
// three from-scratch AES-GCM implementations spanning the performance range
// of the C libraries the paper studies, and a benchmark harness that
// regenerates every table and figure of the paper's evaluation.
//
// This file is the public facade: it re-exports the types a downstream user
// needs so the library can be consumed without reaching into internal
// packages. See README.md for a tour and DESIGN.md for the architecture.
//
// Quick start (see examples/quickstart for the complete program):
//
//	err := encmpi.RunShm(2, func(c *encmpi.Comm) {
//	    sess, _ := encmpi.NewSession(key)
//	    e, _ := sess.Attach(c)
//	    if c.Rank() == 0 {
//	        e.Send(1, 0, encmpi.Bytes([]byte("secret")))
//	    } else {
//	        buf, _, err := e.Recv(0, 0)
//	        ...
//	    }
//	})
//
// A Session binds every record to its communication context (session id,
// epoch, endpoints, routine, tag, sequence) via AEAD additional data and
// supports zero-downtime rekeying; the lower-level Encrypt/EncryptWith
// remain for the paper-faithful baseline and the cost-model engines.
package encmpi

import (
	"encmpi/internal/aead"
	"encmpi/internal/aead/codecs"
	"encmpi/internal/cluster"
	"encmpi/internal/costmodel"
	enc "encmpi/internal/encmpi"
	"encmpi/internal/job"
	"encmpi/internal/mpi"
	"encmpi/internal/session"
	"encmpi/internal/simnet"
)

// Core message-passing types.
type (
	// Comm is a per-rank communicator (the plaintext MPI layer).
	Comm = mpi.Comm
	// Buffer is a message payload: real bytes or a simulated length.
	Buffer = mpi.Buffer
	// Request is a non-blocking plaintext operation handle.
	Request = mpi.Request
	// Status describes a completed receive.
	Status = mpi.Status

	// EncryptedComm wraps a Comm with the paper's Encrypted_* routines.
	EncryptedComm = enc.Comm
	// EncryptedRequest is a non-blocking encrypted operation handle whose
	// decryption runs inside Wait.
	EncryptedRequest = enc.Request

	// Engine performs or models authenticated encryption.
	Engine = enc.Engine
	// Codec is a concrete AEAD implementation.
	Codec = aead.Codec
	// NonceSource produces unique 12-byte nonces.
	NonceSource = aead.NonceSource

	// ClusterSpec describes a simulated machine.
	ClusterSpec = cluster.Spec
	// NetConfig describes a simulated interconnect.
	NetConfig = simnet.Config
	// SimResult reports a simulated job's timing.
	SimResult = job.SimResult

	// Datatype describes the element type of a reduction buffer.
	Datatype = mpi.Datatype
	// ReduceOp is a reduction operator.
	ReduceOp = mpi.Op
)

// Reduction datatypes and operators.
const (
	Float64 Datatype = mpi.Float64
	Int64   Datatype = mpi.Int64
	Int32   Datatype = mpi.Int32
	Uint32  Datatype = mpi.Uint32
	Float32 Datatype = mpi.Float32

	OpSum  ReduceOp = mpi.OpSum
	OpMax  ReduceOp = mpi.OpMax
	OpMin  ReduceOp = mpi.OpMin
	OpProd ReduceOp = mpi.OpProd
)

// Wildcards and wire-format constants.
const (
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
	// Undefined opts a rank out of a Comm.Split (MPI_UNDEFINED).
	Undefined = mpi.Undefined
	// Overhead is the per-message wire expansion of AES-GCM:
	// 12-byte nonce + 16-byte tag.
	Overhead = aead.Overhead
	// NonceSize is the AES-GCM nonce length in bytes.
	NonceSize = aead.NonceSize
)

// ErrUnsupportedReduce matches (via errors.Is) reduction validation
// failures: an unknown (datatype, op) pair, including the additive-noise
// engine's narrower kernel coverage.
var ErrUnsupportedReduce = mpi.ErrUnsupportedReduce

// The typed errors of the encrypted layer's error-handling contract (README
// "Error handling contract"), for errors.Is.
var (
	// ErrAuth: a record failed authentication — tampered, forged, sealed
	// under another key or session, or bound to a different communication
	// context — and its payload was discarded.
	ErrAuth = aead.ErrAuth
	// ErrReplay: a session rejected a genuine record it had already admitted.
	// It wraps ErrAuth.
	ErrReplay = session.ErrReplay
	// ErrStaleEpoch: a session rejected a record from an epoch retired longer
	// ago than its grace window. It wraps ErrAuth.
	ErrStaleEpoch = session.ErrStaleEpoch
	// ErrMalformedWire: wire bytes were structurally invalid (too short for a
	// nonce and tag, an inconsistent chunk framing, a hostile length header).
	ErrMalformedWire = enc.ErrMalformedWire
	// ErrTransport: the transport could not carry a frame, or the rendezvous
	// protocol refused one; the message never arrived intact.
	ErrTransport = mpi.ErrTransport
)

// Bytes wraps a real byte slice as a message payload.
func Bytes(b []byte) Buffer { return mpi.Bytes(b) }

// Synthetic creates a length-only payload for simulation workloads.
func Synthetic(n int) Buffer { return mpi.Synthetic(n) }

// Float64Buffer wraps a float64 slice as a reduction payload.
func Float64Buffer(v []float64) Buffer { return mpi.Float64Buffer(v) }

// Float64s reinterprets a reduction payload as float64 elements.
func Float64s(b Buffer) []float64 { return mpi.Float64s(b) }

// Float32Buffer wraps a float32 slice as a reduction payload.
func Float32Buffer(v []float32) Buffer { return mpi.Float32Buffer(v) }

// Float32s reinterprets a reduction payload as float32 elements.
func Float32s(b Buffer) []float32 { return mpi.Float32s(b) }

// Int32Buffer wraps an int32 slice as a reduction payload.
func Int32Buffer(v []int32) Buffer { return mpi.Int32Buffer(v) }

// Int32s reinterprets a reduction payload as int32 elements.
func Int32s(b Buffer) []int32 { return mpi.Int32s(b) }

// Uint32Buffer wraps a uint32 slice as a reduction payload.
func Uint32Buffer(v []uint32) Buffer { return mpi.Uint32Buffer(v) }

// Uint32s reinterprets a reduction payload as uint32 elements.
func Uint32s(b Buffer) []uint32 { return mpi.Uint32s(b) }

// WireLen returns the on-wire length of an encrypted message whose
// plaintext is n bytes long.
func WireLen(n int) int { return aead.WireLen(n) }

// NewCodec builds a registered AEAD implementation ("aesstd", "aessoft",
// "aesref", "ccmsoft", "ccmref") for a 16/24/32-byte AES key.
func NewCodec(name string, key []byte) (Codec, error) { return codecs.New(name, key) }

// CodecNames lists the registered AEAD implementations.
func CodecNames() []string { return codecs.Names() }

// GCMCodecNames lists just the AES-GCM implementations (the subset the
// paper's byte-accounting invariant — wire = plain + 28 per message —
// holds for).
func GCMCodecNames() []string { return codecs.GCMNames() }

// Encrypt wraps a communicator with real AES-GCM encryption under the given
// codec. noncePrefix must be unique per rank sharing a key (use the rank).
// Options may attach observability: WithMetrics(g) charges this rank's
// seal/open work to g's corresponding per-rank slot.
//
// Deprecated: use NewSession and Session.Attach. A session seals the same
// wire format at the same cost but additionally authenticates each record's
// communication context (session, epoch, endpoints, routine, tag, sequence,
// chunk) as AEAD additional data and supports zero-downtime rekeying;
// Encrypt-wrapped communicators cannot detect a replayed genuine ciphertext
// (the paper scopes that adversary out) and cannot rekey. Encrypt remains
// for the paper-faithful baseline and for the CCM ablation codecs, which
// cannot carry AAD.
func Encrypt(c *Comm, codec Codec, noncePrefix uint32, opts ...Option) *EncryptedComm {
	return EncryptWith(c, enc.NewRealEngine(codec, aead.NewCounterNonce(noncePrefix)), opts...)
}

// EncryptWith wraps a communicator with an explicit engine (e.g. a cost
// model of one of the paper's libraries, or NullEngine for a baseline).
// Options are as for Encrypt. For real AEAD encryption prefer NewSession and
// Session.Attach, which bind records to their communication context;
// EncryptWith remains the way to wire cost-model and baseline engines (and a
// Session.Engine, explicitly).
func EncryptWith(c *Comm, e Engine, opts ...Option) *EncryptedComm {
	cfg := buildConfig(opts)
	var wopts []enc.WrapOption
	if cfg.metrics != nil {
		wopts = append(wopts, enc.ObserveWith(cfg.metrics.Rank(c.Rank())))
	}
	if cfg.pipeThreshold != 0 {
		// A negative threshold disables chunking inside WithPipeline; zero
		// (unset here) leaves the wrapped communicator's default.
		wopts = append(wopts, enc.WithPipeline(cfg.pipeThreshold, 0))
	}
	return enc.Wrap(c, e, wopts...)
}

// Unencrypted returns the pass-through baseline engine.
func Unencrypted() Engine { return enc.NullEngine{} }

// LibraryModel returns a virtual-time engine modeling one of the paper's
// libraries ("boringssl", "openssl", "libsodium", "cryptopp") under a
// toolchain variant ("gcc485" or "mvapich") and key length (128 or 256).
func LibraryModel(library, variant string, keyBits int) (Engine, error) {
	p, err := costmodel.Lookup(library, costmodel.Variant(variant), keyBits)
	if err != nil {
		return nil, err
	}
	return enc.NewModelEngine(p), nil
}

// ExchangeKey runs the X25519 session-key distribution over the plaintext
// wire (the paper's future-work key distribution). All ranks receive the
// same keyLen-byte key.
func ExchangeKey(c *Comm, keyLen int) ([]byte, error) { return enc.ExchangeKey(c, keyLen) }

// RunShm executes an n-rank job over the in-process transport. Options may
// attach metrics (WithMetrics) or wire faults (WithFaults).
func RunShm(n int, body func(c *Comm), opts ...Option) error {
	return job.RunShmOpts(n, buildConfig(opts).jobOptions(), body)
}

// RunTCP executes an n-rank job over real loopback TCP sockets. Options are
// as for RunShm.
func RunTCP(n int, body func(c *Comm), opts ...Option) error {
	return job.RunTCPOpts(n, buildConfig(opts).jobOptions(), body)
}

// RunSim executes a job on the discrete-event cluster simulator. Options may
// additionally attach a fabric trace collector (WithTrace).
func RunSim(spec ClusterSpec, cfg NetConfig, body func(c *Comm), opts ...Option) (SimResult, error) {
	return job.RunSimOpts(spec, cfg, buildConfig(opts).jobOptions(), body)
}

// PaperTestbed returns the paper's cluster shape (8-core nodes).
func PaperTestbed(ranks, nodes int) ClusterSpec { return cluster.PaperTestbed(ranks, nodes) }

// Eth10G returns the calibrated 10 Gbps Ethernet fabric preset.
func Eth10G() NetConfig { return simnet.Eth10G() }

// Eth10GContended is Eth10G with the small-message NIC contention knee
// enabled: with many ranks per node sharing one NIC, flat collectives pay a
// per-message gap inflation that the leader-based hierarchical collectives
// avoid (DESIGN.md §15).
func Eth10GContended() NetConfig { return simnet.Eth10GContended() }

// IB40G returns the calibrated 40 Gbps InfiniBand fabric preset.
func IB40G() NetConfig { return simnet.IB40G() }
