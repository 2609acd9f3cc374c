package encmpi

import (
	"encmpi/internal/mpi"
	"encmpi/internal/session"
)

// Pipelined broadcast: the paper's discussion (§V-C) observes that
// single-thread encryption cannot keep up with fast links and suggests
// parallelizing. A complementary technique — the one later encrypted-MPI
// systems adopted — is to split a large message into chunks, each sealed
// under its own nonce, so that the encryption of chunk k+1 overlaps the
// wire transfer of chunk k. Point-to-point traffic gets that overlap
// transparently from the chunked rendezvous (chunked.go, DESIGN.md §12);
// this file lifts it onto the broadcast tree, with an explicit tag-visible
// framing: a 16-byte announcement header, then the chunks.

// DefaultChunk is the pipelined broadcast's chunk size. 256 KB balances
// per-chunk overhead (28 bytes + a nonce generation each) against overlap
// depth.
const DefaultChunk = 256 << 10

// pipelineTagStride separates chunk tags within one logical message.
const pipelineTagStride = 1 << 20

// BcastPipelined is the segmented broadcast. A plain encrypted Bcast seals
// the whole message, then every tree hop serializes crypto and wire time;
// here the root seals the message chunk by chunk (each chunk an independent
// AEAD message) and streams the sealed chunks down the binomial tree, so
// chunk k+1's encryption and injection overlap chunk k's descent. Interior
// ranks forward each ciphertext chunk to their children *before* decrypting
// it, so a chunk's decryption overlaps the next chunk's wire time and the
// paper's one-seal, p−1-opens accounting is preserved — ciphertext travels
// the tree unmodified, exactly like Bcast.
//
// The 16-byte announcement header travels at tag, chunk k at
// tag+pipelineTagStride·(k+1), so the plain tag space below
// pipelineTagStride remains available to the caller. All ranks must pass the
// same root and tag; the chunk size is the root's — it rides the header, and
// every relay cuts the stream where the root did, so a rank passing a
// different chunk cannot corrupt the broadcast. Non-root ranks may pass the
// zero Buffer; the root's return value is its own buf.
//
// Error handling follows the hostile-bytes contract: a chunk that fails
// authentication is still forwarded (it was forwarded before it was
// opened), the remaining chunks keep flowing so descendants never block on
// this rank, and the error is returned once the stream has drained. A
// header that fails to open poisons this rank's subtree: later chunks then
// land in the unexpected queue.
func (e *Comm) BcastPipelined(root, tag int, buf mpi.Buffer, chunk int) (mpi.Buffer, error) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	p := e.Size()
	if p == 1 {
		return buf, nil
	}
	relrank := (e.Rank() - root + p) % p
	parentRel, childrenRel := bcastTree(relrank, p)
	children := make([]int, len(childrenRel))
	for i, c := range childrenRel {
		children[i] = (c + root) % p
	}
	if relrank == 0 {
		return buf, e.bcastPipeRoot(tag, buf, chunk, children)
	}
	return e.bcastPipeRelay(root, tag, chunk, (parentRel+root)%p, children)
}

// bcastPipeCtx derives the record context of the pipelined broadcast's
// stream: every record is sealed by the root for the whole tree (relays
// forward ciphertext unmodified), so the binding is root → Wildcard at the
// caller's tag. The 16-byte announcement header is chunk 0 of 0 — a position
// no payload chunk can occupy, since payload streams always announce at
// least one chunk — and payload chunk k is position k of the stream's total.
func (e *Comm) bcastPipeCtx(root, tag, k, chunks int) session.RecordCtx {
	return session.RecordCtx{
		Op: session.OpBcast, Src: root, Dst: session.Wildcard,
		Tag: tag, Chunk: k, Chunks: chunks,
	}
}

// bcastTree computes a rank's parent and children in the binomial broadcast
// tree, in root-relative numbering (the same tree Bcast walks). The root's
// parent is -1.
func bcastTree(relrank, p int) (parent int, children []int) {
	parent = -1
	mask := 1
	for mask < p {
		if relrank&mask != 0 {
			parent = relrank - mask
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if relrank+mask < p {
			children = append(children, relrank+mask)
		}
	}
	return parent, children
}

// bcastPipeRoot seals and streams: header first, then one sealed chunk at a
// time fanned out to every child with nonblocking sends, so sealing chunk
// k+1 overlaps the injection and descent of chunk k.
func (e *Comm) bcastPipeRoot(tag int, buf mpi.Buffer, chunk int, children []int) error {
	n := buf.Len()
	chunks := (n + chunk - 1) / chunk
	var pending []*mpi.Request
	// wires holds our lease references until every send that reads from
	// them has completed.
	var wires []mpi.Buffer
	hdr := e.seal(mpi.Bytes(encodePipeHeader(n, chunk)), e.bcastPipeCtx(e.Rank(), tag, 0, 0))
	wires = append(wires, hdr)
	for _, c := range children {
		pending = append(pending, e.c.Isend(c, tag, hdr))
	}
	for off, k := 0, 0; off < n; off, k = off+chunk, k+1 {
		end := off + chunk
		if end > n {
			end = n
		}
		w := e.seal(buf.Slice(off, end), e.bcastPipeCtx(e.Rank(), tag, k, chunks))
		wires = append(wires, w)
		for _, c := range children {
			pending = append(pending, e.c.Isend(c, tag+pipelineTagStride*(k+1), w))
		}
	}
	err := e.c.Waitall(pending)
	for _, w := range wires {
		w.Release()
	}
	return err
}

// bcastPipeRelay receives the ciphertext stream from the parent, forwards
// each chunk to the children before opening it, and assembles the plaintext
// into a buffer preallocated from the announced total.
func (e *Comm) bcastPipeRelay(root, tag, chunk, parent int, children []int) (mpi.Buffer, error) {
	hw, _ := e.c.Recv(parent, tag)
	var pending []*mpi.Request
	wires := []mpi.Buffer{hw}
	release := func() {
		for _, w := range wires {
			w.Release()
		}
	}
	for _, c := range children {
		pending = append(pending, e.c.Isend(c, tag, hw))
	}
	// Every record in the stream was sealed by the root, wherever in the
	// tree this rank received it from.
	hdr, err := e.open(hw, e.bcastPipeCtx(root, tag, 0, 0))
	if err != nil {
		e.c.Waitall(pending)
		release()
		return mpi.Buffer{}, err
	}
	if hdr.IsSynthetic() {
		e.c.Waitall(pending)
		release()
		return mpi.Buffer{}, malformedf("pipelined length header carries no bytes")
	}
	// The root's announced chunk size overrides this rank's argument: every
	// relay reassembles on the boundaries the root actually sealed.
	total, chunk, err := decodePipeHeader(hdr.Data)
	if !hdr.SharesStorage(hw) {
		hdr.Release()
	}
	if err != nil {
		e.c.Waitall(pending)
		release()
		return mpi.Buffer{}, err
	}

	chunks := (total + chunk - 1) / chunk
	// Post every chunk receive up front: arrivals never wait on this rank's
	// decryption backlog.
	reqs := make([]*mpi.Request, chunks)
	for k := 0; k < chunks; k++ {
		reqs[k] = e.c.Irecv(parent, tag+pipelineTagStride*(k+1))
	}
	out := make([]byte, total)
	synthetic := false
	got := 0
	var firstErr error
	for k, r := range reqs {
		w, _ := e.c.Wait(r)
		wires = append(wires, w)
		// Forward first: the children's copy of chunk k is on the wire
		// while this rank decrypts it.
		for _, c := range children {
			pending = append(pending, e.c.Isend(c, tag+pipelineTagStride*(k+1), w))
		}
		plain, err := e.open(w, e.bcastPipeCtx(root, tag, k, chunks))
		if err != nil {
			// Keep relaying so descendants drain cleanly; record the
			// failure and discard this chunk's plaintext contribution.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if plain.IsSynthetic() {
			synthetic = true
		} else {
			if got < total {
				copy(out[got:], plain.Data)
			}
			if !plain.SharesStorage(w) {
				plain.Release()
			}
		}
		got += plain.Len()
	}
	if err := e.c.Waitall(pending); err != nil && firstErr == nil {
		firstErr = err
	}
	release()
	if firstErr != nil {
		return mpi.Buffer{}, firstErr
	}
	if got != total {
		return mpi.Buffer{}, malformedf("pipelined bcast got %d of %d announced bytes", got, total)
	}
	if synthetic {
		return mpi.Synthetic(total), nil
	}
	return mpi.Bytes(out), nil
}

// pipelineHeaderLen is the fixed size of the little-endian announcement
// header: total(8) ‖ chunk(8).
const pipelineHeaderLen = 16

// maxPipelineTotal caps the length a header may announce (1 TiB). Without a
// cap, eight hostile header bytes could demand a petabyte-sized receive
// loop; with it, an absurd length is rejected as malformed before any
// allocation happens.
const maxPipelineTotal = 1 << 40

// maxPipelineChunks caps how many chunk receives a header may demand: an
// in-cap total split by a tiny chunk size would otherwise post a billion
// requests before a single payload byte arrives.
const maxPipelineChunks = 1 << 20

func encodePipeHeader(total, chunk int) []byte {
	out := make([]byte, pipelineHeaderLen)
	for i := 0; i < 8; i++ {
		out[i] = byte(uint64(total) >> (8 * i))
		out[8+i] = byte(uint64(chunk) >> (8 * i))
	}
	return out
}

// decodePipeHeader validates and decodes a pipeline announcement header.
// Short, long, negative, and absurdly large totals are malformed, as is any
// chunk size that is zero, negative, or demands an absurd number of chunks
// — never indexed blindly, never trusted into an allocation.
func decodePipeHeader(b []byte) (total, chunk int, err error) {
	if len(b) != pipelineHeaderLen {
		return 0, 0, malformedf("pipelined length header is %d bytes, want %d", len(b), pipelineHeaderLen)
	}
	var ut, uc uint64
	for i := 0; i < 8; i++ {
		ut |= uint64(b[i]) << (8 * i)
		uc |= uint64(b[8+i]) << (8 * i)
	}
	if ut > maxPipelineTotal {
		return 0, 0, malformedf("pipelined length %d exceeds the %d-byte cap", ut, uint64(maxPipelineTotal))
	}
	if uc == 0 || uc > maxPipelineTotal {
		return 0, 0, malformedf("pipelined chunk size %d is not a usable chunk", uc)
	}
	if (ut+uc-1)/uc > maxPipelineChunks {
		return 0, 0, malformedf("pipelined header demands %d chunks, cap is %d", (ut+uc-1)/uc, maxPipelineChunks)
	}
	return int(ut), int(uc), nil
}
