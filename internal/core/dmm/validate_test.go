package dmm

import (
	"errors"
	"fmt"
	"reflect"

	"dmpc/internal/graph"
)

// The validators and oracle accessors below are read only by this
// package's tests, so they live beside them rather than in the package.

// Validate checks the distributed storage invariants: every graph edge is
// stored under both endpoints exactly once (modulo lazy deletions still in
// H), light vertices live on a single machine, alive windows respect their
// capacity, directory free-space figures match machine contents, and
// nothing is left behind at quiescence: no coordinator flow still in
// flight, no update still queued, and no pooled flow holding a parked
// step, a return step, a reply, an operand or helper scratch that the
// next update could inherit. It also audits every running summary
// against a recomputation from scratch — the machines' MemWords counters,
// the storage owner index, MC's cursor sum — and reads without writing:
// validating changes no machine's state.
func (m *M) Validate(g *graph.Graph) error {
	for i, sm := range m.stats {
		if got, want := sm.MemWords(), sm.scanWords(); got != want {
			return fmt.Errorf("machine %d: stats word counter %d, %d recomputed", 1+i, got, want)
		}
	}
	for i := range m.storage {
		if err := m.storage[i].audit(); err != nil {
			return err
		}
	}
	if fl, q := len(m.coord.inflight), m.coord.queued(); fl+q != 0 {
		return fmt.Errorf("coordinator: %d flows in flight and %d updates queued at quiescence", fl, q)
	}
	for i, fl := range m.coord.free {
		if err := fl.idle(); err != nil {
			return fmt.Errorf("coordinator: pooled flow %d keeps %v", i, err)
		}
	}
	var sum int64
	for _, ls := range m.coord.lastSync {
		sum += ls
	}
	if sum != m.coord.syncSum {
		return fmt.Errorf("coordinator: cursor sum %d, %d recomputed", m.coord.syncSum, sum)
	}
	// Effective edge sets per vertex, after applying pending H deletions.
	for v := 0; v < m.cfg.N; v++ {
		st := m.statPeek(int32(v))
		if int(st.deg) != g.Degree(v) {
			return fmt.Errorf("vertex %d: stats degree %d, graph %d", v, st.deg, g.Degree(v))
		}
		want := g.Degree(v) >= m.coord.heavyAt
		if st.heavy != want {
			return fmt.Errorf("vertex %d: heavy=%v, degree %d, threshold %d", v, st.heavy, g.Degree(v), m.coord.heavyAt)
		}
		edges := map[int32]bool{}
		collect := func(mach int32) error {
			if mach < 0 {
				return nil
			}
			sm := &m.storage[int(mach)-1-len(m.stats)]
			for _, rec := range sm.edges[int32(v)] {
				if m.coord.deletedInH(mach, int32(v), rec.other) {
					continue
				}
				if edges[rec.other] {
					return fmt.Errorf("vertex %d: duplicate edge to %d", v, rec.other)
				}
				edges[rec.other] = true
			}
			return nil
		}
		if err := collect(st.home); err != nil {
			return err
		}
		for _, sm := range st.suspended {
			if err := collect(sm); err != nil {
				return err
			}
		}
		for _, w := range g.Neighbors(v) {
			if !edges[int32(w)] {
				return fmt.Errorf("vertex %d: edge to %d missing from storage", v, w)
			}
		}
		if len(edges) != g.Degree(v) {
			return fmt.Errorf("vertex %d: %d stored, %d in graph", v, len(edges), g.Degree(v))
		}
		if st.heavy {
			alive := &m.storage[int(st.home)-1-len(m.stats)]
			if len(alive.edges[int32(v)]) > m.coord.aliveCap {
				return fmt.Errorf("vertex %d: alive window %d exceeds cap %d",
					v, len(alive.edges[int32(v)]), m.coord.aliveCap)
			}
		} else if len(st.suspended) > 0 {
			return fmt.Errorf("light vertex %d has suspended machines", v)
		}
	}
	return nil
}

// scanWords is Validate's oracle for MemWords: the same sum by scan.
func (s *statsMachine) scanWords() int {
	w := 0
	for _, st := range s.stats {
		w += 6 + len(st.suspended)
	}
	return w
}

// audit is Validate's oracle for the counter and the index: nrecs is the
// number of stored records, and the chains hold exactly the multiset of
// (other, owner) over edges.
func (s *storeMachine) audit() error {
	n := 0
	pairs := map[[2]int32]int{}
	for v, recs := range s.edges {
		n += len(recs)
		for _, r := range recs {
			pairs[[2]int32{r.other, v}]++
		}
	}
	if n != s.nrecs {
		return fmt.Errorf("machine %d: record counter %d, %d stored", s.id, s.nrecs, n)
	}
	for other, p := range s.head {
		for ; p != 0; p = s.nodes[p].next {
			pairs[[2]int32{other, s.nodes[p].owner}]--
		}
	}
	for k, d := range pairs {
		if d != 0 {
			return fmt.Errorf("machine %d: owner index off by %d for record (%d,%d)", s.id, -d, k[1], k[0])
		}
	}
	return nil
}

// idle reports what a pooled flow still holds, nil if nothing.
func (fl *flow) idle() error {
	switch {
	case fl.next != nil:
		return errors.New("a parked step")
	case len(fl.rets) > 0:
		return fmt.Errorf("%d return steps", len(fl.rets))
	case fl.seq != 0 || fl.waiting != 0 || fl.got != 0 || len(fl.stats)+len(fl.acks)+len(fl.stores)+len(fl.ctrs) > 0:
		return fmt.Errorf("replies (seq %d, awaiting %d, %d in)", fl.seq, fl.waiting, fl.got)
	case !reflect.ValueOf(fl.op).IsZero():
		return fmt.Errorf("operands %+v", fl.op)
	case len(fl.machines)+len(fl.pending)+len(fl.dirs)+len(fl.sweep)+len(fl.mates)+len(fl.partner)+len(fl.rot) > 0:
		return errors.New("helper scratch")
	}
	return nil
}

// deletedInH reports whether machine mach's copy of edge (v,other) has a
// pending lazy deletion: an hEdgeDel the machine has not replayed yet. A
// later re-insert does not revive the copy — its record is stored anew,
// possibly on another of v's machines (driver-side validation helper).
func (c *coordinator) deletedInH(mach, v, other int32) bool {
	for _, e := range c.h[c.lastSync[mach]-c.hBase:] {
		if e.op == hEdgeDel && ((e.a == v && e.b == other) || (e.a == other && e.b == v)) {
			return true
		}
	}
	return false
}
