package amm

import (
	"fmt"
	"slices"

	"dmpc/internal/graph"
)

// The validators and oracle accessors below are read only by this
// package's tests, so they live beside them rather than in the package.

// Levels reads the level decomposition (driver-side oracle).
func (m *M) Levels() []int {
	out := make([]int, m.cfg.N)
	for v := 0; v < m.cfg.N; v++ {
		out[v] = int(m.vert(v).lvl)
	}
	return out
}

// Validate checks the §6 invariants that must hold at every quiescent
// point: the matching is consistent; matched vertices have level ≥ 0 and
// both endpoints of a matched edge share its level; free vertices are at
// level -1; any free-free edge's endpoints are queued or active (the
// almost-maximality bookkeeping); every shard's running MemWords equals a
// recomputation by scan; and both probe indexes equal theirs. It reads
// without writing.
func (m *M) Validate(g *graph.Graph) error {
	for _, sh := range m.shards {
		if got, want := sh.MemWords(), sh.scanWords(); got != want {
			return fmt.Errorf("machine %d: shard word counter %d, %d recomputed", sh.id, got, want)
		}
		if err := sh.auditIndexes(); err != nil {
			return err
		}
	}
	pending := map[int32]bool{}
	for _, q := range m.sched.queues {
		for _, v := range q {
			pending[v] = true
		}
	}
	for v := range m.sched.active {
		pending[v] = true
	}
	for v := 0; v < m.cfg.N; v++ {
		st := m.vert(v)
		if st.mate >= 0 {
			other := m.vert(int(st.mate))
			if other.mate != int32(v) {
				return fmt.Errorf("vertex %d: mate %d disagrees", v, st.mate)
			}
			if !g.Has(v, int(st.mate)) {
				return fmt.Errorf("matched edge (%d,%d) not in graph", v, st.mate)
			}
			if st.lvl < 0 {
				return fmt.Errorf("matched vertex %d at level %d", v, st.lvl)
			}
			if st.lvl != other.lvl {
				return fmt.Errorf("matched edge (%d,%d) spans levels %d,%d", v, st.mate, st.lvl, other.lvl)
			}
		} else if st.lvl != -1 {
			return fmt.Errorf("free vertex %d at level %d", v, st.lvl)
		}
	}
	for _, e := range g.Edges() {
		if m.vert(e.U).mate == -1 && m.vert(e.V).mate == -1 && !pending[int32(e.U)] && !pending[int32(e.V)] {
			return fmt.Errorf("free-free edge (%d,%d) with neither endpoint pending", e.U, e.V)
		}
	}
	return nil
}

// scanWords is Validate's oracle for MemWords: the same sum by scan.
func (s *shard) scanWords() int {
	w := 0
	for _, st := range s.verts {
		w += 4 + 2*len(st.adj)
	}
	for _, j := range s.jobs {
		w += 2 + len(j.todo)
	}
	return w
}

// auditIndexes is Validate's oracle for the probe indexes: both sets and
// every flag recomputed by scan.
func (s *shard) auditIndexes() error {
	var shuffle, rise []int32
	for v, st := range s.verts {
		if in := shuffleCand(v, st); in != st.inShuffle {
			return fmt.Errorf("machine %d: vertex %d flagged %v in the shuffle index, a scan says %v", s.id, v, st.inShuffle, in)
		} else if in {
			shuffle = append(shuffle, v)
		}
		if in := s.riseCand(st); in != st.inRise {
			return fmt.Errorf("machine %d: vertex %d flagged %v in the rise index, a scan says %v", s.id, v, st.inRise, in)
		} else if in {
			rise = append(rise, v)
		}
	}
	slices.Sort(shuffle)
	slices.Sort(rise)
	if !slices.Equal(s.shuffle, shuffle) {
		return fmt.Errorf("machine %d: shuffle index lists %v, a scan finds %v", s.id, s.shuffle, shuffle)
	}
	if !slices.Equal(s.rise, rise) {
		return fmt.Errorf("machine %d: rise index lists %v, a scan finds %v", s.id, s.rise, rise)
	}
	return nil
}
