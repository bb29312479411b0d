package graph

import "math/rand"

// Stream produces dynamic update sequences. Each generator returns the
// updates and the final graph obtained by replaying them; callers that need
// intermediate states replay the prefix themselves.

// edgeSet is a live edge set: the graph, its edges in a list, and each
// edge's position in the list, so a uniformly drawn edge leaves in O(1).
type edgeSet struct {
	g       *Graph
	present []Edge
	pos     map[Edge]int
}

func newEdgeSet(n, capacity int) *edgeSet {
	return &edgeSet{g: New(n), present: make([]Edge, 0, capacity), pos: make(map[Edge]int)}
}

// add inserts the edge (u, v), which must be absent.
func (s *edgeSet) add(u, v int, w Weight) {
	s.g.Insert(u, v, w)
	e := NormEdge(u, v)
	s.pos[e] = len(s.present)
	s.present = append(s.present, e)
}

// removeAt deletes the i-th listed edge, moving the last one into its
// slot, and returns it.
func (s *edgeSet) removeAt(i int) Edge {
	e := s.present[i]
	last := len(s.present) - 1
	s.present[i] = s.present[last]
	s.pos[s.present[i]] = i
	s.present = s.present[:last]
	delete(s.pos, e)
	s.g.Delete(e.U, e.V)
	return e
}

// keepWellFormed applies up if the stream stays well-formed and returns
// the update to emit: a duplicate insert is dropped (false), and a delete
// of an absent edge deletes present[(u+v) mod len] instead, so deletes
// keep their coverage; it is dropped only when the set is empty.
func (s *edgeSet) keepWellFormed(up Update) (Update, bool) {
	e := NormEdge(up.U, up.V)
	i, ok := s.pos[e]
	if up.Op == Insert {
		if !ok {
			s.add(e.U, e.V, up.W)
		}
		return up, !ok
	}
	if !ok {
		if len(s.present) == 0 {
			return up, false
		}
		i = (e.U + e.V) % len(s.present)
	}
	e = s.removeAt(i)
	return Update{Op: Delete, U: e.U, V: e.V}, true
}

// drawEdge makes up to 50 endpoint draws and returns the first pair that
// is neither a self-loop nor an edge of g. The first endpoint is drawn
// from pool when it is non-nil, uniformly otherwise; the second always
// uniformly.
func drawEdge(g *Graph, pool []int, rng *rand.Rand) (u, v int, ok bool) {
	for t := 0; t < 50; t++ {
		if pool != nil {
			u = pool[rng.Intn(len(pool))]
		} else {
			u = rng.Intn(g.N())
		}
		v = rng.Intn(g.N())
		if u != v && !g.Has(u, v) {
			return u, v, true
		}
	}
	return 0, 0, false
}

// randomWeight draws a weight uniform in [1, maxW]; it is 1, and draws
// nothing, when maxW <= 1 or rng is nil.
func randomWeight(maxW Weight, rng *rand.Rand) Weight {
	if maxW <= 1 || rng == nil {
		return 1
	}
	return 1 + Weight(rng.Int63n(int64(maxW)))
}

// RandomStream emits length updates on n vertices: with probability pInsert
// a fresh random edge is inserted, otherwise a uniformly random present edge
// is deleted (falling back to an insert when the graph is empty). Weights
// are uniform in [1, maxW].
func RandomStream(n, length int, pInsert float64, maxW Weight, rng *rand.Rand) []Update {
	s := newEdgeSet(n, length)
	updates := make([]Update, 0, length)
	for len(updates) < length {
		if rng.Float64() < pInsert || len(s.present) == 0 {
			if u, v, ok := drawEdge(s.g, nil, rng); ok {
				w := randomWeight(maxW, rng)
				s.add(u, v, w)
				updates = append(updates, Update{Op: Insert, U: u, V: v, W: w})
				continue
			}
			if len(s.present) == 0 {
				break
			}
		}
		e := s.removeAt(rng.Intn(len(s.present)))
		updates = append(updates, Update{Op: Delete, U: e.U, V: e.V})
	}
	return updates
}

// SlidingWindow emits inserts until the graph holds window edges, then
// alternates deleting the oldest edge and inserting a fresh one — the
// "evolving web / social network" workload from the paper's introduction.
// A window the n vertices cannot hold slides once the graph is complete,
// and an empty window ends the stream early.
func SlidingWindow(n, window, length int, maxW Weight, rng *rand.Rand) []Update {
	g := New(n)
	var fifo []Edge
	updates := make([]Update, 0, length)
	insert := func() {
		if u, v, ok := drawEdge(g, nil, rng); ok {
			w := randomWeight(maxW, rng)
			g.Insert(u, v, w)
			fifo = append(fifo, NormEdge(u, v))
			updates = append(updates, Update{Op: Insert, U: u, V: v, W: w})
		}
	}
	for len(updates) < length {
		if len(fifo) < window && g.M() < n*(n-1)/2 {
			insert()
			continue
		}
		if len(fifo) == 0 {
			break
		}
		e := fifo[0]
		fifo = fifo[1:]
		g.Delete(e.U, e.V)
		updates = append(updates, Update{Op: Delete, U: e.U, V: e.V})
		if len(updates) < length {
			insert()
		}
	}
	return updates
}

// TreeChurn builds a random spanning tree over n vertices plus extra
// non-tree edges, then repeatedly deletes a random *tree* edge and reinserts
// it. This forces the hard case of dynamic connectivity (spanning-forest
// repair / replacement search) on every deletion.
func TreeChurn(n, extra, churn int, maxW Weight, rng *rand.Rand) (initial []Update, churnUpdates []Update) {
	tree := RandomTree(n, maxW, rng)
	treeEdges := tree.Edges()
	g := tree.Clone()
	for _, e := range treeEdges {
		initial = append(initial, Update{Op: Insert, U: e.U, V: e.V, W: e.W})
	}
	for i := 0; i < extra; i++ {
		if u, v, ok := drawEdge(g, nil, rng); ok {
			w := randomWeight(maxW, rng)
			g.Insert(u, v, w)
			initial = append(initial, Update{Op: Insert, U: u, V: v, W: w})
		}
	}
	for i := 0; i < churn; i++ {
		e := treeEdges[rng.Intn(len(treeEdges))]
		churnUpdates = append(churnUpdates, Update{Op: Delete, U: e.U, V: e.V})
		churnUpdates = append(churnUpdates, Update{Op: Insert, U: e.U, V: e.V, W: e.W})
	}
	return initial, churnUpdates
}

// MixedStream interleaves typed queries into an update stream so the
// running read fraction tracks readfrac: after each update, queries drawn
// from mkQuery are appended until reads/(reads+writes) reaches the target.
// This is the standard mixed read/write workload of the unified op
// pipeline; the relative update order is preserved exactly.
func MixedStream(updates []Update, readfrac float64, mkQuery func(rng *rand.Rand) Op, rng *rand.Rand) []Op {
	if readfrac <= 0 || readfrac >= 1 || mkQuery == nil {
		return UpdateOps(updates)
	}
	ops := make([]Op, 0, int(float64(len(updates))/(1-readfrac))+1)
	reads, writes := 0, 0
	for _, up := range updates {
		ops = append(ops, OpUpdate(up))
		writes++
		for float64(reads) < readfrac/(1-readfrac)*float64(writes) {
			ops = append(ops, mkQuery(rng))
			reads++
		}
	}
	return ops
}
