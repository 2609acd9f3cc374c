// hier.go is the encrypted face of the topology-aware collectives
// (DESIGN.md §15). The shape mirrors mpi's plaintext HierBcast /
// HierAllgather / HierAllreduce / HierAlltoall — aggregate intra-node first,
// let only node leaders touch the network — but the crypto placement is the
// point: intra-node legs move plaintext over the in-process rings (the
// CryptMPI posture: the adversary is on the network, not inside the node),
// and every inter-node hop is sealed exactly once by a leader. The seal
// budget per operation is therefore a function of the node count, not the
// rank count: 1 for Bcast, `nodes` for Allgather and Allreduce, and
// nodes×(nodes−1) for Alltoall — against p, p, 2(p−1)·rounds, and p×(p−1)
// for the flat encrypted versions.
//
// Nonce-safety invariant: every RecordCtx below names ranks in the PARENT
// (attached) communicator's numbering, never a sub-communicator's. All ranks
// share one session keyed on the parent comm, and the nonce's source field
// is what keeps two sealers from colliding — two different leaders must
// never present the same Src. Parent ranks are globally unique; Node/Leaders
// ranks are not (rank 0 exists in every node group).
package encmpi

import (
	"encoding/binary"
	"errors"
	"fmt"

	"encmpi/internal/mpi"
	"encmpi/internal/obs"
	"encmpi/internal/session"
)

// hierCtx derives a hierarchical-collective record context. src and dst are parent-comm ranks (see the package
// comment's nonce-safety invariant); tag disambiguates multiple records a
// single operation seals under the same (src, dst) pair.
func (e *Comm) hierCtx(op session.Op, src, dst, tag int) session.RecordCtx {
	return session.RecordCtx{Op: op, Src: src, Dst: dst, Tag: tag}
}

// nodeRankOf translates parent-comm rank r into its node communicator's
// numbering: position within the ascending member list (the Node split is
// keyed by parent rank, so orders agree).
func nodeRankOf(h *mpi.Hier, r int) int {
	for i, m := range h.Members[h.NodeIdx[r]] {
		if m == r {
			return i
		}
	}
	return 0
}

var errLeaderOpen = errors.New("encmpi: node leader could not authenticate the inter-node record")

// The intra-node distribution leg runs as two rounds: a one-byte status
// broadcast, then (on success) the payload itself. The status round is the
// in-band failure channel — a leader whose inter-node decrypt failed
// broadcasts hierFail and skips the payload round, so node members always
// unblock and turn the failure into an error, never a hang. Splitting status
// from payload (rather than packing both into one frame) also keeps
// synthetic payloads synthetic end to end.
var (
	hierOK   = mpi.Bytes([]byte{1})
	hierFail = mpi.Bytes([]byte{0})
)

func hierStatusOK(b mpi.Buffer) bool {
	return !b.IsSynthetic() && b.Len() == 1 && b.Data[0] == 1
}

// nodeDistribute shares the leader's plaintext result — or its inter-node
// failure — with the node via the status+payload rounds. Members pass a zero
// res and nil leaderErr; single-member nodes short-circuit.
func nodeDistribute(h *mpi.Hier, res mpi.Buffer, leaderErr error) (mpi.Buffer, error) {
	if h.IsLeader {
		if h.Node.Size() == 1 {
			if leaderErr != nil {
				return mpi.Buffer{}, leaderErr
			}
			return res, nil
		}
		if leaderErr != nil {
			h.Node.Bcast(0, hierFail)
			return mpi.Buffer{}, leaderErr
		}
		h.Node.Bcast(0, hierOK)
		h.Node.Bcast(0, res)
		return res, nil
	}
	if !hierStatusOK(h.Node.Bcast(0, mpi.Buffer{})) {
		return mpi.Buffer{}, errLeaderOpen
	}
	return h.Node.Bcast(0, mpi.Buffer{}), nil
}

// hierBcastSagMin is the sealed-record size above which the inter-node leg
// of HierBcast switches from one whole-record binomial broadcast to van de
// Geijn scatter-allgather: the ciphertext is cut into one fragment per
// leader, binomial-scattered down the leader tree, and reassembled with a
// recursive-doubling allgather. A whole-record binomial tree makes the
// root's NIC serialize log(leaders) full copies; scatter-allgather moves
// each byte off the root exactly once and costs every leader ~2× the record
// in total traffic, so it wins as soon as the record is big enough that
// bandwidth, not per-message latency, dominates. The record is still sealed
// exactly once — the fragments are ciphertext slices, and the reassembled
// record authenticates (or fails) as a whole at every leader.
const hierBcastSagMin = 16 << 10

// Leader-tree point-to-point tags of the scatter-allgather, spaced inside
// the hierTag band (see hierTag) away from HierAllreduce's hop tags.
const (
	hierBcastTagScatter = hierTag + 256
	hierBcastTagGather  = hierTag + 257
)

// hierBcastHeader frames the one quantity the leaders' protocol choice
// hangs on — the sealed record's length — as a real 4-byte buffer, so every
// leader picks the same algorithm regardless of engine or payload kind. The
// header is plaintext-layer routing metadata, unauthenticated like the rest
// of the tree topology: tampering with it stalls the collective or fails the
// AEAD open downstream; it cannot forge payload bytes.
func hierBcastHeader(wireLen int) mpi.Buffer {
	hdr := make([]byte, 4)
	binary.LittleEndian.PutUint32(hdr, uint32(wireLen))
	return mpi.Bytes(hdr)
}

func parseHierBcastHeader(b mpi.Buffer) int {
	if b.IsSynthetic() || b.Len() != 4 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(b.Data))
}

// useScatterAllgather is the size/shape gate shared by the send and receive
// sides of the leader broadcast. The recursive-doubling reassembly needs a
// power-of-two leader count, and below four leaders (or below hierBcastSagMin
// bytes) the binomial tree is at most two latency-bound hops that
// scatter-allgather could only lose to.
func useScatterAllgather(h *mpi.Hier, wireLen int) bool {
	L := h.Leaders.Size()
	return wireLen >= hierBcastSagMin && L >= 4 && L&(L-1) == 0
}

// leadersBcastSend moves the sealed record from the root's leader to every
// other leader: a header round announcing the record length, then either one
// whole-record binomial broadcast or the scatter-allgather.
func leadersBcastSend(h *mpi.Hier, lroot int, wire mpi.Buffer) {
	h.Leaders.Bcast(lroot, hierBcastHeader(wire.Len()))
	if useScatterAllgather(h, wire.Len()) {
		leadersScatterAllgather(h, lroot, wire.Len(), wire)
	} else {
		h.Leaders.Bcast(lroot, wire)
	}
}

// leadersBcastRecv is the receiving half of leadersBcastSend.
func leadersBcastRecv(h *mpi.Hier, lroot int) mpi.Buffer {
	n := parseHierBcastHeader(h.Leaders.Bcast(lroot, mpi.Buffer{}))
	if useScatterAllgather(h, n) {
		return leadersScatterAllgather(h, lroot, n, mpi.Buffer{})
	}
	return h.Leaders.Bcast(lroot, mpi.Buffer{})
}

// hierFragOff returns the byte offset of fragment i when a wireLen-byte
// record is cut into L near-equal fragments (the first wireLen%L fragments
// are one byte longer). Fragment indices live in the root-relative (vrank)
// numbering, so both sides derive the identical table from the header.
func hierFragOff(wireLen, L, i int) int {
	base, rem := wireLen/L, wireLen%L
	off := i * base
	if i < rem {
		return off + i
	}
	return off + rem
}

// leadersScatterAllgather runs the large-record leader broadcast: a binomial
// scatter hands each leader its one ciphertext fragment (every byte leaves
// the root's NIC exactly once), then a recursive-doubling allgather doubles
// each leader's contiguous fragment range log2(L) times until everyone holds
// the whole record. All range arithmetic happens in vrank space (leader rank
// minus lroot, mod L), where the fragment table is the identity.
func leadersScatterAllgather(h *mpi.Hier, lroot, wireLen int, wire mpi.Buffer) mpi.Buffer {
	L := h.Leaders.Size()
	v := (h.Leaders.Rank() - lroot + L) % L
	peer := func(pv int) int { return (pv + lroot) % L }

	// Scatter. Rank v receives the fragment range [v, v+lsb(v)) from its
	// binomial parent and forwards the upper half to each child, largest
	// subtree first; the root starts with [0, L) — the whole record.
	cur, lo, hi := wire, 0, L
	if v != 0 {
		lsb := v & -v
		cur, _ = h.Leaders.Recv(peer(v-lsb), hierBcastTagScatter)
		lo, hi = v, v+lsb
	}
	curOff := hierFragOff(wireLen, L, lo)
	var reqs []*mpi.Request
	for m := (hi - lo) >> 1; m >= 1; m >>= 1 {
		child := lo + m
		part := cur.Slice(hierFragOff(wireLen, L, child)-curOff, hierFragOff(wireLen, L, hi)-curOff)
		reqs = append(reqs, h.Leaders.Isend(peer(child), hierBcastTagScatter, part))
		hi = child
	}
	h.Leaders.Waitall(reqs)

	// Allgather (recursive doubling). Before the step with stride m every
	// leader holds the aligned m-fragment block containing v; exchanging
	// with vrank v^m merges the two halves of the enclosing 2m block.
	cur = cur.Slice(0, hierFragOff(wireLen, L, v+1)-curOff)
	for m := 1; m < L; m <<= 1 {
		p := peer(v ^ m)
		got, _ := h.Leaders.Sendrecv(p, hierBcastTagGather, cur, p, hierBcastTagGather)
		if v&m != 0 {
			cur = concatWire([]mpi.Buffer{got, cur})
		} else {
			cur = concatWire([]mpi.Buffer{cur, got})
		}
	}
	if v == 0 {
		return wire
	}
	return cur
}

// concatWire reassembles the received segments (in order) into one record.
// All segments slice one buffer, so they are uniformly real or uniformly
// synthetic.
func concatWire(chunks []mpi.Buffer) mpi.Buffer {
	total := 0
	real := false
	for _, c := range chunks {
		total += c.Len()
		if !c.IsSynthetic() {
			real = true
		}
	}
	if !real {
		return mpi.Synthetic(total)
	}
	data := make([]byte, 0, total)
	for _, c := range chunks {
		data = append(data, c.Data...)
	}
	return mpi.Bytes(data)
}

// HierBcast is the two-level encrypted broadcast: plaintext intra-node hop on
// the root's node, ONE seal by the root's node leader, ciphertext across the
// leaders (binomial tree for small records, scatter-allgather for large),
// one open per remote node, plaintext intra-node distribution. Total crypto:
// 1 seal + (nodes−1) opens, versus 1 seal + (p−1) opens flat — and the
// payload crosses each node's NIC once regardless of how many ranks live
// there. Falls back to the flat encrypted Bcast when the topology is unknown
// or single-node.
func (e *Comm) HierBcast(root int, buf mpi.Buffer) (mpi.Buffer, error) {
	h := e.c.Hier()
	if h == nil || h.Nodes() == 1 {
		return e.Bcast(root, buf)
	}
	e.metrics.Op(obs.OpHierBcast)
	// One ciphertext reaches every remote node; the record binds the root's
	// node leader as sealer and leaves the receiver unbound.
	ctx := e.hierCtx(session.OpHierBcast, h.LeaderOf[root], session.Wildcard, 0)
	return hierBcastRun(e, h, root, h.NodeIdx[root], nodeRankOf(h, root), ctx, buf)
}

// hierBcastRun is the schedule shared by HierBcast and BcastPlan: the
// callers differ only in whether the route constants and record context are
// computed per call or pinned at plan init.
func hierBcastRun(e *Comm, h *mpi.Hier, root, rootNode, nodeRoot int, ctx session.RecordCtx, buf mpi.Buffer) (mpi.Buffer, error) {
	if h.NodeIdx[e.Rank()] == rootNode {
		if e.Rank() == root && h.IsLeader {
			// The root doubles as its node's leader (the common case):
			// launch the inter-node phase first so remote NICs carry bytes
			// immediately, then make the intra-node copies at shm speed.
			leadersBcastSend(h, rootNode, e.seal(buf, ctx))
			if h.Node.Size() > 1 {
				h.Node.Bcast(nodeRoot, buf)
			}
			return buf, nil
		}
		// The root's node shares the payload at shm speed (the leader needs
		// it before it can seal), then its leader covers the network.
		if h.Node.Size() > 1 {
			buf = h.Node.Bcast(nodeRoot, buf)
		}
		if h.IsLeader {
			leadersBcastSend(h, rootNode, e.seal(buf, ctx))
		}
		return buf, nil
	}
	if h.IsLeader {
		wire := leadersBcastRecv(h, rootNode)
		plain, err := e.open(wire, ctx)
		if err != nil {
			err = fmt.Errorf("encmpi: hier bcast: %w", err)
		}
		return nodeDistribute(h, plain, err)
	}
	return nodeDistribute(h, mpi.Buffer{}, nil)
}

// HierAllreduce reduces intra-node in plaintext, runs a sealed binomial
// reduce-then-broadcast among leaders (each inter-node hop encrypted
// point-to-point, the final result sealed once for all leaders), and
// broadcasts the plaintext result back intra-node. Exactly `nodes` seals:
// nodes−1 up the reduce tree plus one fan-out record. Note the contrast with
// the flat path: Encrypted_Allreduce does not exist (reductions must combine
// plaintext at every hop, so the paper's routine list excludes them) — the
// hierarchy is what makes an authenticated reduction affordable, because
// only log(nodes) sealed hops sit on the critical path.
func (e *Comm) HierAllreduce(buf mpi.Buffer, dt mpi.Datatype, op mpi.Op) (mpi.Buffer, error) {
	h := e.c.Hier()
	if h == nil || h.Nodes() == 1 {
		return e.Allreduce(buf, dt, op)
	}
	if e.hearParams != nil {
		return e.hierHearAllreduce(h, buf, dt, op)
	}
	e.metrics.Op(obs.OpHierAllreduce)
	partial := buf
	if h.Node.Size() > 1 {
		partial = h.Node.Reduce(0, buf, dt, op)
	}
	var leaderErr error
	if h.IsLeader {
		partial, leaderErr = e.leaderReduceBcast(h, partial, dt, op)
	}
	// Intra-node distribution; the status round carries the leader's
	// success/failure so members never hang on a failed open.
	return nodeDistribute(h, partial, leaderErr)
}

// hierTag spaces the leader-phase point-to-point tags far above anything an
// application plausibly uses on the Leaders communicator (which Comm.Hier
// exposes), so the sealed reduce hops cannot be matched by user receives.
const hierTag = 1 << 30

// leaderReduceBcast is HierAllreduce's inter-node phase, run by leaders only:
// a binomial reduce onto Leaders rank 0 with every hop sealed for its
// specific receiver, then one Wildcard-sealed broadcast of the result. Leader
// numbering equals dense node index, so both ends derive each hop's record
// context — sealer and receiver parent ranks, hop round — locally.
//
// A failed open mid-tree does not stall the protocol: the leader keeps
// forwarding its own partial (the schedule completes everywhere) and reports
// the authentication failure to its caller afterwards.
func (e *Comm) leaderReduceBcast(h *mpi.Hier, partial mpi.Buffer, dt mpi.Datatype, op mpi.Op) (mpi.Buffer, error) {
	L := h.Leaders.Size()
	lrank := h.Leaders.Rank()
	me := e.Rank()
	acc := partial.Clone() // reduceInto mutates its accumulator; never the caller's buffer
	var firstErr error
	step := 0
	for mask := 1; mask < L; mask <<= 1 {
		if lrank&mask != 0 {
			peer := lrank - mask
			ctx := e.hierCtx(session.OpHierAllreduce, me, h.Members[peer][0], step)
			if err := h.Leaders.Send(peer, hierTag+step, e.seal(acc, ctx)); err != nil {
				firstErr = fmt.Errorf("encmpi: hier allreduce hop to node %d: %w", peer, err)
			}
			break
		}
		if peer := lrank | mask; peer < L {
			wire, _ := h.Leaders.Recv(peer, hierTag+step)
			ctx := e.hierCtx(session.OpHierAllreduce, h.Members[peer][0], me, step)
			got, err := e.open(wire, ctx)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("encmpi: hier allreduce hop from node %d: %w", peer, err)
				}
			} else if got.Len() == acc.Len() {
				var rerr error
				if acc, rerr = mpi.ReduceBuffers(acc, got, dt, op); rerr != nil && firstErr == nil {
					firstErr = fmt.Errorf("encmpi: hier allreduce hop from node %d: %w", peer, rerr)
				}
			} else if firstErr == nil {
				firstErr = fmt.Errorf("encmpi: hier allreduce hop from node %d: partial length %d, want %d", peer, got.Len(), acc.Len())
			}
		}
		step++
	}
	// One fan-out record carries the final result to every leader.
	ctx := e.hierCtx(session.OpHierAllreduce, h.Members[0][0], session.Wildcard, -1)
	var wire mpi.Buffer
	if lrank == 0 {
		wire = e.seal(acc, ctx)
	}
	wire = h.Leaders.Bcast(0, wire)
	if lrank == 0 {
		return acc, firstErr
	}
	res, err := e.open(wire, ctx)
	if err != nil {
		if firstErr == nil {
			firstErr = fmt.Errorf("encmpi: hier allreduce result: %w", err)
		}
		return mpi.Buffer{}, firstErr
	}
	return res, firstErr
}

// HierAllgather gathers blocks intra-node in plaintext, seals ONE aggregate
// per node (the leader packs its node's blocks and seals the frame), moves
// the `nodes` ciphertexts through the leader allgatherv, and broadcasts the
// reassembled plaintext intra-node. `nodes` seals and nodes×(nodes−1)
// opens replace the flat version's p seals and p×(p−1) opens; the result is
// indexed by parent rank, bit-for-bit what the flat Allgather returns.
func (e *Comm) HierAllgather(myBlock mpi.Buffer) ([]mpi.Buffer, error) {
	h := e.c.Hier()
	if h == nil || h.Nodes() == 1 {
		return e.Allgather(myBlock)
	}
	e.metrics.Op(obs.OpHierAllgather)
	p := e.Size()
	nodeBlocks := h.Node.Gather(0, myBlock)
	var packedAll mpi.Buffer
	var leaderErr error
	if h.IsLeader {
		wire := e.seal(mpi.PackBlocks(nodeBlocks), e.hierCtx(session.OpHierAllgather, e.Rank(), session.Wildcard, 0))
		gathered := h.Leaders.Allgatherv(wire)
		res := make([]mpi.Buffer, p)
		for i, w := range gathered {
			plain, err := e.open(w, e.hierCtx(session.OpHierAllgather, h.Members[i][0], session.Wildcard, 0))
			if err != nil {
				leaderErr = fmt.Errorf("encmpi: hier allgather node %d: %w", i, err)
				break
			}
			for j, b := range mpi.UnpackBlocks(plain) {
				if j < len(h.Members[i]) {
					res[h.Members[i][j]] = b
				}
			}
		}
		if leaderErr == nil {
			packedAll = mpi.PackBlocks(res)
		} else {
			packedAll = mpi.PackBlocks(nil) // failure frame: zero blocks ≠ p
		}
	}
	if h.Node.Size() > 1 {
		packedAll = h.Node.Bcast(0, packedAll)
	}
	if leaderErr != nil {
		return nil, leaderErr
	}
	out := mpi.UnpackBlocks(packedAll)
	if len(out) != p {
		return nil, errLeaderOpen
	}
	return out, nil
}

// HierAlltoall routes the personalized exchange through node leaders with
// one sealed aggregate per (source node, destination node) pair — the
// node-local aggregate never leaves the leader and stays plaintext. Crypto
// drops from p×(p−1) sealed blocks to nodes×(nodes−1), and each NIC carries
// nodes−1 flows instead of p−1. Block order inside an aggregate is (source
// member, destination member), deterministic on both ends.
func (e *Comm) HierAlltoall(blocks []mpi.Buffer) ([]mpi.Buffer, error) {
	h := e.c.Hier()
	if h == nil || h.Nodes() == 1 {
		return e.Alltoall(blocks)
	}
	if len(blocks) != e.Size() {
		panic(fmt.Sprintf("encmpi: HierAlltoall needs %d blocks, got %d", e.Size(), len(blocks)))
	}
	e.metrics.Op(obs.OpHierAlltoall)
	myNode := h.NodeIdx[e.Rank()]
	gathered := h.Node.Gather(0, mpi.PackBlocks(blocks))
	var myPacked mpi.Buffer
	var leaderErr error
	if h.IsLeader {
		perSrc := make([][]mpi.Buffer, len(gathered))
		for j, g := range gathered {
			perSrc[j] = mpi.UnpackBlocks(g)
		}
		aggs := make([]mpi.Buffer, h.Nodes())
		scratch := make([]mpi.Buffer, 0, len(perSrc)*8)
		for d := 0; d < h.Nodes(); d++ {
			scratch = scratch[:0]
			for _, srcBlocks := range perSrc {
				for _, dst := range h.Members[d] {
					if dst < len(srcBlocks) {
						scratch = append(scratch, srcBlocks[dst])
					} else {
						scratch = append(scratch, mpi.Buffer{})
					}
				}
			}
			agg := mpi.PackBlocks(scratch)
			if d == myNode {
				aggs[d] = agg // Alltoallv keeps the self block local: no wire, no seal
			} else {
				aggs[d] = e.seal(agg, e.hierCtx(session.OpHierAlltoall, e.Rank(), h.Members[d][0], d))
			}
		}
		got := h.Leaders.Alltoallv(aggs)
		res := make([][]mpi.Buffer, len(h.Members[myNode]))
		for m := range res {
			res[m] = make([]mpi.Buffer, e.Size())
		}
		for srcNode, g := range got {
			plain := g
			if srcNode != myNode {
				var err error
				plain, err = e.open(g, e.hierCtx(session.OpHierAlltoall, h.Members[srcNode][0], e.Rank(), myNode))
				if err != nil {
					leaderErr = fmt.Errorf("encmpi: hier alltoall from node %d: %w", srcNode, err)
					break
				}
			}
			parts := mpi.UnpackBlocks(plain)
			k := 0
			for _, src := range h.Members[srcNode] {
				for m := range h.Members[myNode] {
					if k < len(parts) {
						res[m][src] = parts[k]
					}
					k++
				}
			}
		}
		perMember := make([]mpi.Buffer, len(res))
		for m := range res {
			if leaderErr != nil {
				perMember[m] = mpi.PackBlocks(nil)
			} else {
				perMember[m] = mpi.PackBlocks(res[m])
			}
		}
		myPacked = h.Node.Scatterv(0, perMember)
	} else {
		myPacked = h.Node.Scatterv(0, nil)
	}
	if leaderErr != nil {
		return nil, leaderErr
	}
	out := mpi.UnpackBlocks(myPacked)
	if len(out) != e.Size() {
		return nil, errLeaderOpen
	}
	return out, nil
}
