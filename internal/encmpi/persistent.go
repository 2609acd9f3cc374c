// persistent.go is the init-once/start-many face of the collectives
// (DESIGN.md §15): MPI_Bcast_init / MPI_Allreduce_init shaped plans. Init
// pays every setup cost a repeated collective would otherwise re-pay per
// call — the topology decomposition (two Splits), the leader exchange
// schedule (who sends to whom at which hop, under which tag), and the record
// contexts the session engine authenticates as AAD — and pins them in the
// plan. Start/Wait then execute the pinned schedule and nothing else: no
// Split, no geometry negotiation, no key or nonce derivation (sequence
// numbers advance inside the already-derived epoch), and no per-call context
// allocation. Tests gate this with testing.AllocsPerRun on the plan
// machinery and by pinning Session.Derivations across steady-state
// iterations.
package encmpi

import (
	"fmt"

	"encmpi/internal/hear"
	"encmpi/internal/mpi"
	"encmpi/internal/obs"
	"encmpi/internal/session"
)

// BcastPlan is a persistent broadcast: the root, the two-level route, and
// the sealed record's context are fixed at init. One plan supports many
// Start/Wait cycles; cycles must not overlap (Start panics on an active
// plan, exactly like MPI_Start on an active persistent request).
type BcastPlan struct {
	e    *Comm
	root int
	h    *mpi.Hier // nil: flat schedule
	ctx  session.RecordCtx

	// Hier-schedule constants, valid when h != nil.
	rootNode int // dense node index of root
	nodeRoot int // root's rank within its node communicator

	active bool
	res    mpi.Buffer
	err    error
}

// BcastInit builds a persistent broadcast plan rooted at root. The call is
// collective the first time any plan or hierarchical collective touches the
// communicator (the topology Splits run here); afterwards it is local.
func (e *Comm) BcastInit(root int) *BcastPlan {
	p := &BcastPlan{e: e, root: root}
	if h := e.c.Hier(); h != nil && h.Nodes() > 1 {
		p.h = h
		p.rootNode = h.NodeIdx[root]
		p.nodeRoot = nodeRankOf(h, root)
		p.ctx = e.hierCtx(session.OpHierBcast, h.LeaderOf[root], session.Wildcard, 0)
	} else {
		p.ctx = e.collCtx(session.OpBcast, root, session.Wildcard)
	}
	return p
}

// Start launches one broadcast cycle carrying buf (meaningful at the root).
// The collectives underneath are blocking, so Start runs the pinned schedule
// to completion; Wait returns the result and rearms the plan.
func (p *BcastPlan) Start(buf mpi.Buffer) *BcastPlan {
	if p.active {
		panic("encmpi: BcastPlan.Start on an active plan; Wait first")
	}
	p.active = true
	p.res, p.err = p.run(buf)
	return p
}

// Wait completes the cycle begun by Start and rearms the plan.
func (p *BcastPlan) Wait() (mpi.Buffer, error) {
	if !p.active {
		panic("encmpi: BcastPlan.Wait without a Start")
	}
	p.active = false
	return p.res, p.err
}

func (p *BcastPlan) run(buf mpi.Buffer) (mpi.Buffer, error) {
	e := p.e
	if p.h == nil {
		// Flat schedule, pinned context: the shape of Comm.Bcast without the
		// per-call RecordCtx allocation.
		e.metrics.Op(obs.OpBcast)
		var wire mpi.Buffer
		if e.Rank() == p.root {
			wire = e.seal(buf, p.ctx)
		}
		wire = e.c.Bcast(p.root, wire)
		if e.Rank() == p.root {
			return buf, nil
		}
		return e.open(wire, p.ctx)
	}
	e.metrics.Op(obs.OpHierBcast)
	return hierBcastRun(e, p.h, p.root, p.rootNode, p.nodeRoot, p.ctx, buf)
}

// arHop is one pinned hop of the leader reduce tree: the Leaders-rank peer,
// the wire tag, and the pre-derived record context for that hop's seal or
// open.
type arHop struct {
	peer int
	tag  int
	ctx  session.RecordCtx
}

// AllreducePlan is a persistent allreduce: datatype, operator, the two-level
// route, and the full leader exchange schedule (every reduce-tree hop's
// peer, tag, and record context, plus the fan-out record) are fixed at init.
type AllreducePlan struct {
	e  *Comm
	dt mpi.Datatype
	op mpi.Op
	h  *mpi.Hier // nil: flat (plaintext-combining) schedule

	// Leader schedule, valid when h != nil && h.IsLeader. send is nil on the
	// reduce root (Leaders rank 0); recvs lists hops in execution order.
	send     *arHop
	recvs    []arHop
	finalCtx session.RecordCtx

	// initErr pins a failure detected at init time (an unsupported hear
	// (datatype, op) pair or a failed key ceremony); every cycle returns it.
	initErr error

	active bool
	res    mpi.Buffer
	err    error
}

// AllreduceInit builds a persistent allreduce plan. As with BcastInit, the
// first plan construction on a topology-aware communicator is collective.
func (e *Comm) AllreduceInit(dt mpi.Datatype, op mpi.Op) *AllreducePlan {
	p := &AllreducePlan{e: e, dt: dt, op: op}
	if e.hearParams != nil {
		// Pay the hear setup here, the init-once point: validate the pair
		// and run the key ceremony so Start/Wait cycles touch no key
		// material beyond the lockstep nonce step.
		if err := hear.Supported(dt, op); err != nil {
			p.initErr = fmt.Errorf("encmpi: hear allreduce plan: %w", err)
		} else if _, err := e.hearState(); err != nil {
			p.initErr = err
		}
	}
	h := e.c.Hier()
	if h == nil || h.Nodes() == 1 {
		return p
	}
	p.h = h
	if !h.IsLeader {
		return p
	}
	// Pin the binomial reduce tree for this leader: identical arithmetic to
	// leaderReduceBcast, evaluated once.
	L := h.Leaders.Size()
	lrank := h.Leaders.Rank()
	me := e.Rank()
	step := 0
	for mask := 1; mask < L; mask <<= 1 {
		if lrank&mask != 0 {
			peer := lrank - mask
			p.send = &arHop{
				peer: peer,
				tag:  hierTag + step,
				ctx:  e.hierCtx(session.OpHierAllreduce, me, h.Members[peer][0], step),
			}
			break
		}
		if peer := lrank | mask; peer < L {
			p.recvs = append(p.recvs, arHop{
				peer: peer,
				tag:  hierTag + step,
				ctx:  e.hierCtx(session.OpHierAllreduce, h.Members[peer][0], me, step),
			})
		}
		step++
	}
	p.finalCtx = e.hierCtx(session.OpHierAllreduce, h.Members[0][0], session.Wildcard, -1)
	return p
}

// Start launches one allreduce cycle over buf; see BcastPlan.Start for the
// activation contract.
func (p *AllreducePlan) Start(buf mpi.Buffer) *AllreducePlan {
	if p.active {
		panic("encmpi: AllreducePlan.Start on an active plan; Wait first")
	}
	p.active = true
	p.res, p.err = p.run(buf)
	return p
}

// Wait completes the cycle begun by Start and rearms the plan.
func (p *AllreducePlan) Wait() (mpi.Buffer, error) {
	if !p.active {
		panic("encmpi: AllreducePlan.Wait without a Start")
	}
	p.active = false
	return p.res, p.err
}

func (p *AllreducePlan) run(buf mpi.Buffer) (mpi.Buffer, error) {
	e := p.e
	if p.initErr != nil {
		return mpi.Buffer{}, p.initErr
	}
	if p.h == nil {
		return e.Allreduce(buf, p.dt, p.op)
	}
	if e.hearParams != nil {
		// The hear schedule has no per-call setup to pin — no record
		// contexts, no hop list — so the plan and the direct call share it;
		// init already ran the key ceremony.
		return e.hierHearAllreduce(p.h, buf, p.dt, p.op)
	}
	h := p.h
	e.metrics.Op(obs.OpHierAllreduce)
	partial := buf
	if h.Node.Size() > 1 {
		partial = h.Node.Reduce(0, buf, p.dt, p.op)
	}
	var leaderErr error
	if h.IsLeader {
		partial, leaderErr = p.leaderPhase(partial)
	}
	return nodeDistribute(h, partial, leaderErr)
}

// leaderPhase executes the pinned reduce tree and fan-out: semantics of
// leaderReduceBcast with zero schedule computation.
func (p *AllreducePlan) leaderPhase(partial mpi.Buffer) (mpi.Buffer, error) {
	e, h := p.e, p.h
	acc := partial.Clone()
	var firstErr error
	for _, hop := range p.recvs {
		wire, _ := h.Leaders.Recv(hop.peer, hop.tag)
		got, err := e.open(wire, hop.ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else if got.Len() == acc.Len() {
			var rerr error
			if acc, rerr = mpi.ReduceBuffers(acc, got, p.dt, p.op); rerr != nil && firstErr == nil {
				firstErr = rerr
			}
		}
	}
	if p.send != nil {
		if err := h.Leaders.Send(p.send.peer, p.send.tag, e.seal(acc, p.send.ctx)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var wire mpi.Buffer
	root := p.send == nil
	if root {
		wire = e.seal(acc, p.finalCtx)
	}
	wire = h.Leaders.Bcast(0, wire)
	if root {
		return acc, firstErr
	}
	res, err := e.open(wire, p.finalCtx)
	if err != nil {
		if firstErr == nil {
			firstErr = err
		}
		return mpi.Buffer{}, firstErr
	}
	return res, firstErr
}
