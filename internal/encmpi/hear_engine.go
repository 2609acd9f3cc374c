// hear_engine.go wires the additive-noise reduction scheme (internal/hear,
// DESIGN.md §16) into the encrypted communicator. Unlike every other engine
// kind, "hear" does not seal reduction traffic at all: each rank adds a
// keyed noise mask to its contribution, the unmodified plaintext reduction
// tree combines the masked values (noise is additive, so it rides the same
// kernels), and every rank subtracts the closed-form aggregate noise from
// the result. The AEAD inner engine still protects the key ceremony and all
// non-reduction routines; the reductions themselves trade AES-GCM's
// integrity and full confidentiality for O(1) cheap arithmetic per element.
//
// SECURITY: the hear path has NO integrity protection — a tampered wire
// buffer decodes to garbage with no failure signal — and its confidentiality
// is strictly weaker than the AEAD engines (bounded-noise masking, small
// per-rank seed space). See the internal/hear package comment and DESIGN.md
// §16 before choosing it.
package encmpi

import (
	"encoding/binary"
	"fmt"

	"encmpi/internal/cryptopool"
	"encmpi/internal/hear"
	"encmpi/internal/mpi"
	"encmpi/internal/obs"
)

// HearEngine is the spec-level carrier for the additive-noise reduction
// path: Wrap unwraps it, runs all AEAD routines on the embedded inner engine,
// and installs the hear parameters on the communicator. It still implements
// Engine (the embedded engine's methods: reductions under hear add zero wire
// bytes, and the inner engine frames every non-reduction routine) so generic
// engine plumbing — fault sweeps, name reports — treats it like any other.
type HearEngine struct {
	Engine
	Params hear.Params
}

// Name implements Engine.
func (h *HearEngine) Name() string { return "hear+" + h.Engine.Name() }

// hearState returns the per-communicator key state, running the key ceremony
// on first use. The ceremony mirrors libhear's setup and is collective:
//
//  1. every rank draws a seed key from [0, SeedSpace) and allgathers it,
//     each 8-byte record sealed by the inner AEAD engine, so every rank
//     ends with the identical per-rank seed-key vector;
//  2. rank 0 draws the 64-bit nonce key and broadcasts it, again sealed.
//
// After setup no further key traffic ever flows: the nonce key steps through
// a shared PRNG after every operation, so the keystream advances in lockstep
// on every rank for free.
func (e *Comm) hearState() (*hear.State, error) {
	if e.hearSt != nil {
		return e.hearSt, nil
	}
	p := *e.hearParams
	own, err := p.DrawSeedKey()
	if err != nil {
		return nil, fmt.Errorf("encmpi: hear ceremony: %w", err)
	}
	var rec [8]byte
	binary.LittleEndian.PutUint64(rec[:], own)
	blocks, err := e.Allgather(mpi.Bytes(rec[:]))
	if err != nil {
		return nil, fmt.Errorf("encmpi: hear ceremony: seed-key allgather: %w", err)
	}
	ks := make([]uint64, e.Size())
	for j, b := range blocks {
		if b.Len() != 8 {
			return nil, fmt.Errorf("encmpi: hear ceremony: seed-key record from rank %d is %d bytes, want 8", j, b.Len())
		}
		ks[j] = binary.LittleEndian.Uint64(b.Data)
	}
	var knBuf mpi.Buffer
	if e.Rank() == 0 {
		kn, err := hear.DrawNonceKey()
		if err != nil {
			return nil, fmt.Errorf("encmpi: hear ceremony: %w", err)
		}
		var knRec [8]byte
		binary.LittleEndian.PutUint64(knRec[:], kn)
		knBuf = mpi.Bytes(knRec[:])
	}
	got, err := e.Bcast(0, knBuf)
	if err != nil {
		return nil, fmt.Errorf("encmpi: hear ceremony: nonce-key bcast: %w", err)
	}
	if got.Len() != 8 {
		return nil, fmt.Errorf("encmpi: hear ceremony: nonce-key record is %d bytes, want 8", got.Len())
	}
	st, err := hear.NewState(e.Rank(), ks, binary.LittleEndian.Uint64(got.Data), p, cryptopool.Default())
	if err != nil {
		return nil, fmt.Errorf("encmpi: hear ceremony: %w", err)
	}
	e.hearSt = st
	return st, nil
}

// hearMask applies (decrypt=false) or removes (decrypt=true) the noise mask
// on buf in place, charging the rank's hear counters. Real buffers run the
// kernels and record wall time; synthetic buffers charge the calibrated
// virtual-time cost to the proc clock, so the simulator's hear runs are
// comparable to the model engines. lo/hi is the decrypt rank span (the set
// of ranks whose noise the aggregate carries); ignored for encrypt.
func (e *Comm) hearMask(st *hear.State, buf mpi.Buffer, dt mpi.Datatype, op mpi.Op, decrypt bool, lo, hi int) {
	proc := e.c.Proc()
	if buf.IsSynthetic() {
		cost := st.ModelCost(buf.Len(), dt, op, decrypt, hi-lo)
		proc.Advance(cost)
		elems := buf.Len() / dt.Size()
		if decrypt {
			e.metrics.HearDecrypt(elems, int64(cost))
		} else {
			e.metrics.HearEncrypt(elems, int64(cost))
		}
		return
	}
	start := proc.Now()
	var elems int
	if decrypt {
		elems = st.Decrypt(buf.Data[:buf.Len()], dt, op, lo, hi)
	} else {
		elems = st.Encrypt(buf.Data[:buf.Len()], dt, op)
	}
	ns := int64(proc.Now() - start)
	if decrypt {
		e.metrics.HearDecrypt(elems, ns)
	} else {
		e.metrics.HearEncrypt(elems, ns)
	}
}

// Allreduce combines buffers element-wise across all ranks.
//
// Under the classic engines it delegates to the plaintext library:
// reductions must combine plaintext at every hop, and the paper's encrypted
// routine list (§IV) deliberately excludes them — in the NAS runs, reduction
// traffic rides the unmodified MPI path. AllreduceSealed is the explicit
// AEAD-per-hop alternative, and HierAllreduce the topology-aware one.
//
// Under the hear engine the reduction is protected without any sealing:
// every rank masks its contribution, the plaintext tree reduces the masked
// values, and every rank removes the aggregate noise from the result. An
// unsupported (datatype, op) pair returns an error wrapping
// mpi.ErrUnsupportedReduce instead of silently falling back to plaintext.
func (e *Comm) Allreduce(buf mpi.Buffer, dt mpi.Datatype, op mpi.Op) (mpi.Buffer, error) {
	if e.hearParams == nil {
		return e.c.Allreduce(buf, dt, op), nil
	}
	if err := hear.Supported(dt, op); err != nil {
		return mpi.Buffer{}, fmt.Errorf("encmpi: hear allreduce: %w", err)
	}
	st, err := e.hearState()
	if err != nil {
		return mpi.Buffer{}, err
	}
	work := buf.Clone()
	e.hearMask(st, work, dt, op, false, 0, 0)
	res := e.c.Allreduce(work, dt, op)
	work.Release()
	e.hearMask(st, res, dt, op, true, 0, e.Size())
	st.Step()
	return res, nil
}

// Reduce combines buffers element-wise onto root; only root's return value
// is meaningful. Classic engines delegate to the plaintext library (see
// Allreduce); the hear engine masks every contribution and unmasks on root
// only — non-root ranks still step the shared nonce key so the keystream
// stays in lockstep.
func (e *Comm) Reduce(root int, buf mpi.Buffer, dt mpi.Datatype, op mpi.Op) (mpi.Buffer, error) {
	if e.hearParams == nil {
		return e.c.Reduce(root, buf, dt, op), nil
	}
	if err := hear.Supported(dt, op); err != nil {
		return mpi.Buffer{}, fmt.Errorf("encmpi: hear reduce: %w", err)
	}
	st, err := e.hearState()
	if err != nil {
		return mpi.Buffer{}, err
	}
	work := buf.Clone()
	e.hearMask(st, work, dt, op, false, 0, 0)
	res := e.c.Reduce(root, work, dt, op)
	work.Release()
	if e.Rank() == root {
		e.hearMask(st, res, dt, op, true, 0, e.Size())
	}
	st.Step()
	return res, nil
}

// Scan computes the inclusive prefix reduction. The hear mask algebra
// supports prefixes directly: rank r's result carries the noise of ranks
// 0..r, so it unmasks the span [0, r+1) — no extra communication.
func (e *Comm) Scan(buf mpi.Buffer, dt mpi.Datatype, op mpi.Op) (mpi.Buffer, error) {
	if e.hearParams == nil {
		return e.c.Scan(buf, dt, op), nil
	}
	if err := hear.Supported(dt, op); err != nil {
		return mpi.Buffer{}, fmt.Errorf("encmpi: hear scan: %w", err)
	}
	st, err := e.hearState()
	if err != nil {
		return mpi.Buffer{}, err
	}
	work := buf.Clone()
	e.hearMask(st, work, dt, op, false, 0, 0)
	res := e.c.Scan(work, dt, op)
	work.Release()
	e.hearMask(st, res, dt, op, true, 0, e.Rank()+1)
	st.Step()
	return res, nil
}

// sealedRedTag spaces AllreduceSealed's point-to-point tags into their own
// band (below hierTag's 1<<30), so sealed reduction hops cannot be matched
// by user receives or the hierarchical collectives.
const sealedRedTag = 1 << 28

// AllreduceSealed is the AEAD-per-hop allreduce: every hop of the reduction
// travels as a sealed point-to-point record (seal, wire, open, combine —
// the "reduce-then-seal" shape), giving reductions the full integrity and
// confidentiality of the configured engine at the cost of one seal and one
// open per hop per rank. Power-of-two worlds use recursive doubling
// (log2(p) sealed exchanges per rank); otherwise a sealed binomial reduce
// onto rank 0 followed by an encrypted broadcast. This is the comparison
// baseline the additive-noise engine is benchmarked against.
func (e *Comm) AllreduceSealed(buf mpi.Buffer, dt mpi.Datatype, op mpi.Op) (mpi.Buffer, error) {
	p := e.Size()
	e.sealedSeq++
	base := sealedRedTag + (e.sealedSeq%(1<<20))*64
	acc := buf.Clone()
	if p&(p-1) == 0 {
		for step, mask := 0, 1; mask < p; mask <<= 1 {
			partner := e.Rank() ^ mask
			got, _, err := e.Sendrecv(partner, base+step, acc, partner, base+step)
			if err != nil {
				return mpi.Buffer{}, fmt.Errorf("encmpi: sealed allreduce step %d: %w", step, err)
			}
			var rerr error
			if acc, rerr = mpi.ReduceBuffers(acc, got, dt, op); rerr != nil {
				return mpi.Buffer{}, fmt.Errorf("encmpi: sealed allreduce step %d: %w", step, rerr)
			}
			got.Release()
			step++
		}
		return acc, nil
	}
	// Non-power-of-two: sealed binomial reduce onto rank 0, then the
	// ordinary encrypted broadcast (one seal, p-1 opens).
	rank := e.Rank()
	for mask := 1; mask < p; mask <<= 1 {
		if rank&mask != 0 {
			if err := e.Send(rank-mask, base, acc); err != nil {
				return mpi.Buffer{}, fmt.Errorf("encmpi: sealed allreduce send: %w", err)
			}
			break
		}
		src := rank | mask
		if src >= p {
			continue
		}
		got, _, err := e.Recv(src, base)
		if err != nil {
			return mpi.Buffer{}, fmt.Errorf("encmpi: sealed allreduce recv from %d: %w", src, err)
		}
		var rerr error
		if acc, rerr = mpi.ReduceBuffers(acc, got, dt, op); rerr != nil {
			return mpi.Buffer{}, fmt.Errorf("encmpi: sealed allreduce combine from %d: %w", src, rerr)
		}
		got.Release()
	}
	return e.Bcast(0, acc)
}

// hierHearAllreduce is HierAllreduce's additive-noise schedule. The noise
// algebra composes across both levels untouched: leaves mask once, the
// intra-node tree reduces masked values, leaders exchange the raw masked
// partials with no seal or open at all (the inter-node hops that dominate
// the AEAD path's cost), the node root broadcasts the masked total, and
// every rank removes the full-communicator aggregate noise locally. The
// result is bit-identical to the flat hear path for integer types.
//
// The schedule needs no per-call setup — no record contexts, no pinned hop
// list — so the persistent AllreducePlan and the direct call share this
// function; plans only pre-run the key ceremony at init.
func (e *Comm) hierHearAllreduce(h *mpi.Hier, buf mpi.Buffer, dt mpi.Datatype, op mpi.Op) (mpi.Buffer, error) {
	if err := hear.Supported(dt, op); err != nil {
		return mpi.Buffer{}, fmt.Errorf("encmpi: hier hear allreduce: %w", err)
	}
	st, err := e.hearState()
	if err != nil {
		return mpi.Buffer{}, err
	}
	e.metrics.Op(obs.OpHierAllreduce)
	work := buf.Clone()
	e.hearMask(st, work, dt, op, false, 0, 0)
	partial := work
	if h.Node.Size() > 1 {
		partial = h.Node.Reduce(0, work, dt, op)
	}
	if h.IsLeader {
		partial = h.Leaders.Allreduce(partial, dt, op)
	}
	if h.Node.Size() > 1 {
		partial = h.Node.Bcast(0, partial)
	}
	if !partial.SharesStorage(work) {
		work.Release()
	}
	e.hearMask(st, partial, dt, op, true, 0, e.Size())
	st.Step()
	return partial, nil
}
