package dmm

import (
	"fmt"
	"slices"

	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// statsMachine holds the authoritative per-vertex statistics for a
// contiguous id range (the paper's O(n/√N) statistics machines).
type statsMachine struct {
	stats     map[int32]*stat
	suspWords int // Σ len(stat.suspended), kept at the one suspSet site
	reps      mpc.Outbox[statsRep]
}

func newStatsMachine() *statsMachine {
	return &statsMachine{stats: make(map[int32]*stat)}
}

func (s *statsMachine) MemWords() int {
	return 6*len(s.stats) + s.suspWords
}

func (s *statsMachine) get(v int32) *stat {
	st, ok := s.stats[v]
	if !ok {
		st = &stat{mate: -1, home: -1}
		s.stats[v] = st
	}
	return st
}

// peek returns v's stat without allocating authoritative state for a
// never-touched vertex — the read of the driver-side batch scheduler, the
// MateTable oracle, Validate and mate queries. The suspended list is the
// live slice, read-only: a suspSet replaces it whole with a fresh copy and
// nothing writes into it, so every view of it stays as it was taken.
func (s *statsMachine) peek(v int32) stat {
	if st, ok := s.stats[v]; ok {
		return *st
	}
	return stat{mate: -1, home: -1}
}

func (s *statsMachine) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	for _, raw := range inbox {
		switch m := raw.Payload.(type) {
		case *statsReq:
			st := s.get(m.V)
			st.deg += m.DegDelta
			cp := *st
			// A capped view of the immutable stack: MC's appends reallocate.
			cp.suspended = slices.Clip(st.suspended)
			s.reps.Send(ctx, 0, statsRep{Seq: m.Seq, V: m.V, St: cp}, 8+len(cp.suspended))
		case *statsSet:
			st := s.get(m.V)
			switch m.Field {
			case fMate:
				st.mate = m.Val
			case fHeavy:
				st.heavy = m.Val != 0
			case fHome:
				st.home = m.Val
			case fCnt:
				st.aliveCnt = m.Val
			}
		case *suspSet:
			st := s.get(m.V)
			s.suspWords += len(m.Susp) - len(st.suspended)
			st.suspended = slices.Clone(m.Susp)
		case *mateQuery:
			// Plain lookup: a read must not allocate authoritative state
			// for a never-touched vertex (free vertices report -1 anyway).
			// The answer is mate(V); ApplyOps folds OpMatched from it.
			ctx.Answer(int(m.Seq), graph.Answer{Int: int64(s.peek(m.V).mate)})
		case *ctrMsg:
			if m.Kind == cCtrAdd {
				for i, v := range m.Vs {
					s.get(v).freeNbr += m.Ds[i]
				}
				continue
			}
			reply := &ctrMsg{Kind: cCtrRep, Seq: m.Seq, Vs: slices.Clone(m.Vs), Ds: make([]int32, len(m.Vs))}
			for i, v := range m.Vs {
				reply.Ds[i] = s.get(v).freeNbr
			}
			ctx.Send(0, reply, 2+2*len(m.Vs))
		}
	}
}

// storeMachine holds adjacency records, keyed by owning vertex. It applies
// H suffixes before acting and reports reclaimed space on every reply.
//
// Every record enters through add and leaves through unindex, which keep
// nrecs (MemWords is edgeWords·nrecs) and the owner index: head[w] starts a
// chain through nodes naming the owner of each record whose other endpoint
// is w — once per record, since a stale lazily-deleted copy and its
// re-insert can coexist — so an H entry costs the lists that mention its
// vertices, not the machine. nodes[0] ends every chain and free heads the
// recycled nodes: the zero machine is an empty one (the pool is one slab),
// and its maps and nodes appear with its first record.
type storeMachine struct {
	id    int
	edges map[int32][]edgeRec
	nrecs int
	head  map[int32]int32
	nodes []ownerNode
	free  int32
}

type ownerNode struct{ owner, next int32 }

func (s *storeMachine) MemWords() int { return edgeWords * s.nrecs }

func (s *storeMachine) add(v int32, rec edgeRec) {
	if s.edges == nil {
		s.edges, s.head = make(map[int32][]edgeRec), make(map[int32]int32)
		s.nodes = []ownerNode{{owner: -1}}
	}
	s.edges[v] = append(s.edges[v], rec)
	s.nrecs++
	p := s.free
	if p != 0 {
		s.free = s.nodes[p].next
	} else {
		p = int32(len(s.nodes))
		s.nodes = append(s.nodes, ownerNode{})
	}
	s.nodes[p] = ownerNode{owner: v, next: s.head[rec.other]}
	s.head[rec.other] = p
}

// unindex forgets one record of v naming other (the caller takes it out of
// edges): the chain is a multiset, so the entry naming v takes over the
// head's owner and the head node is recycled.
func (s *storeMachine) unindex(v, other int32) {
	s.nrecs--
	p := s.head[other]
	q := p
	for s.nodes[q].owner != v {
		if q = s.nodes[q].next; q == 0 {
			panic(fmt.Sprintf("dmm: machine %d: owner index lost record (%d,%d)", s.id, v, other))
		}
	}
	s.nodes[q].owner = s.nodes[p].owner
	if next := s.nodes[p].next; next != 0 {
		s.head[other] = next
	} else {
		delete(s.head, other)
	}
	s.nodes[p].next, s.free = s.free, p
}

// applyH replays an update-history suffix onto the local records,
// returning the number of words reclaimed by lazy deletions. A machine
// holding nothing — most round-robin refreshes land on free pool machines —
// has nothing to replay onto.
func (s *storeMachine) applyH(h []hentry) int32 {
	if s.nrecs == 0 {
		return 0
	}
	var freed int32
	for _, e := range h {
		switch e.op {
		case hEdgeDel:
			freed += s.removeRec(e.a, e.b)
			freed += s.removeRec(e.b, e.a)
		case hMatched:
			s.eachRec(e.a, func(r *edgeRec) { r.matched, r.mate, r.mateHeavy = true, e.b, e.bh })
			s.eachRec(e.b, func(r *edgeRec) { r.matched, r.mate, r.mateHeavy = true, e.a, e.ah })
		case hUnmatched:
			s.eachRec(e.a, func(r *edgeRec) { r.matched, r.mate, r.mateHeavy = false, -1, false })
			s.eachRec(e.b, func(r *edgeRec) { r.matched, r.mate, r.mateHeavy = false, -1, false })
		case hHeavyOn, hHeavyOff:
			on := e.op == hHeavyOn
			s.eachRec(e.a, func(r *edgeRec) { r.heavy = on })
			s.eachMate(e.a, func(r *edgeRec) { r.mateHeavy = on })
		}
	}
	return freed
}

// eachRec visits every record whose other endpoint is v: the lists of the
// owners v's chain names. An owner holding two such records is named (and
// its list walked) twice; every visitor is idempotent.
func (s *storeMachine) eachRec(v int32, f func(*edgeRec)) {
	for p := s.head[v]; p != 0; p = s.nodes[p].next {
		recs := s.edges[s.nodes[p].owner]
		for i := range recs {
			if recs[i].other == v {
				f(&recs[i])
			}
		}
	}
}

// eachMate visits every record whose mirrored mate is v. It scans the
// machine: only heavy transitions ask, and nothing indexes mates.
func (s *storeMachine) eachMate(v int32, f func(*edgeRec)) {
	for _, recs := range s.edges {
		for i := range recs {
			if recs[i].matched && recs[i].mate == v {
				f(&recs[i])
			}
		}
	}
}

func (s *storeMachine) removeRec(v, other int32) int32 {
	recs := s.edges[v]
	for i := range recs {
		if recs[i].other == other {
			recs[i] = recs[len(recs)-1]
			s.edges[v] = recs[:len(recs)-1]
			if len(s.edges[v]) == 0 {
				delete(s.edges, v)
			}
			s.unindex(v, other)
			return edgeWords
		}
	}
	return 0
}

func (s *storeMachine) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	for _, raw := range inbox {
		switch m := raw.Payload.(type) {
		case *storeMsg:
			freed := s.applyH(m.H)
			if !m.Refresh {
				s.add(m.V, m.Rec)
			}
			if freed > 0 || m.Refresh {
				ctx.Send(0, &ack{Seq: -1, Target: int32(s.id), Freed: freed}, 4)
			}
		case *storageReq:
			freed := s.applyH(m.H)
			switch m.Kind {
			case cScan:
				reply := &storageRep{Kind: cScanRep, Seq: m.Seq, Target: int32(s.id), Freed: freed}
				for _, r := range s.edges[m.V] {
					if m.WantFree && !r.matched && r.other != m.Exclude {
						reply.FoundFree, reply.Rec = true, r
						break
					}
					if m.WantSteal && !reply.FoundSteal && r.matched && !r.mateHeavy {
						reply.FoundSteal, reply.Rec = true, r
					}
				}
				if reply.FoundFree {
					reply.FoundSteal = false
				}
				ctx.Send(0, reply, 12)
			case cList:
				recs := append([]edgeRec(nil), s.edges[m.V]...)
				ctx.Send(0, &storageRep{
					Kind: cListRep, Seq: m.Seq, Target: int32(s.id),
					Freed: freed, Recs: recs,
				}, 4+edgeWords*len(recs))
			case cMoveOut:
				recs := s.edges[m.V]
				delete(s.edges, m.V)
				for _, r := range recs {
					s.unindex(m.V, r.other)
				}
				freed += int32(len(recs) * edgeWords)
				ctx.Send(int(m.Target), &storageRep{
					Kind: cMoveIn, Seq: m.Seq, V: m.V, Recs: recs, Keep: m.Keep, Overflow: m.Overflow,
				}, 2+edgeWords*len(recs))
				ctx.Send(0, &ack{Seq: m.Seq, Target: int32(s.id), Freed: freed}, 4)
			}
		case *storageRep: // cMoveIn
			recs := m.Recs
			kept := recs
			if m.Keep >= 0 && int(m.Keep) < len(recs) {
				kept = recs[:m.Keep]
			}
			for _, r := range kept {
				s.add(m.V, r)
			}
			ctx.Send(0, &ack{
				Seq: m.Seq, Target: int32(s.id),
				Used: int32(len(kept) * edgeWords), Count: int32(len(kept)),
			}, 5)
			if m.Overflow >= 0 {
				rest := recs[len(kept):]
				ctx.Send(int(m.Overflow), &storageRep{
					Kind: cMoveIn, Seq: m.Seq, V: m.V, Recs: rest, Keep: -1, Overflow: -1,
				}, 2+edgeWords*len(rest))
			}
		}
	}
}
