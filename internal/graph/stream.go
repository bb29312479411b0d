package graph

import "math/rand"

// Stream produces dynamic update sequences. Each generator returns the
// updates and the final graph obtained by replaying them; callers that need
// intermediate states replay the prefix themselves.

// RandomStream emits length updates on n vertices: with probability pInsert
// a fresh random edge is inserted, otherwise a uniformly random present edge
// is deleted (falling back to an insert when the graph is empty). Weights
// are uniform in [1, maxW].
func RandomStream(n, length int, pInsert float64, maxW Weight, rng *rand.Rand) []Update {
	g := New(n)
	updates := make([]Update, 0, length)
	present := make([]Edge, 0, length)
	pos := make(map[Edge]int)

	addRandom := func() bool {
		for t := 0; t < 50; t++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || g.Has(u, v) {
				continue
			}
			w := Weight(1)
			if maxW > 1 {
				w = 1 + Weight(rng.Int63n(int64(maxW)))
			}
			g.Insert(u, v, w)
			e := NormEdge(u, v)
			pos[e] = len(present)
			present = append(present, e)
			updates = append(updates, Update{Op: Insert, U: u, V: v, W: w})
			return true
		}
		return false
	}
	removeRandom := func() bool {
		if len(present) == 0 {
			return false
		}
		i := rng.Intn(len(present))
		e := present[i]
		last := len(present) - 1
		present[i] = present[last]
		pos[present[i]] = i
		present = present[:last]
		delete(pos, e)
		g.Delete(e.U, e.V)
		updates = append(updates, Update{Op: Delete, U: e.U, V: e.V})
		return true
	}

	for len(updates) < length {
		if rng.Float64() < pInsert || len(present) == 0 {
			if !addRandom() && !removeRandom() {
				break
			}
		} else {
			removeRandom()
		}
	}
	return updates
}

// SlidingWindow emits inserts until the graph holds window edges, then
// alternates deleting the oldest edge and inserting a fresh one — the
// "evolving web / social network" workload from the paper's introduction.
func SlidingWindow(n, window, length int, maxW Weight, rng *rand.Rand) []Update {
	g := New(n)
	var fifo []Edge
	updates := make([]Update, 0, length)
	insert := func() {
		for t := 0; t < 50; t++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || g.Has(u, v) {
				continue
			}
			w := Weight(1)
			if maxW > 1 {
				w = 1 + Weight(rng.Int63n(int64(maxW)))
			}
			g.Insert(u, v, w)
			fifo = append(fifo, NormEdge(u, v))
			updates = append(updates, Update{Op: Insert, U: u, V: v, W: w})
			return
		}
	}
	for len(updates) < length {
		if len(fifo) < window {
			insert()
			continue
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
		for t := 0; t < 50; t++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || g.Has(u, v) {
				continue
			}
			w := Weight(1)
			if maxW > 1 {
				w = 1 + Weight(rng.Int63n(int64(maxW)))
			}
			g.Insert(u, v, w)
			initial = append(initial, Update{Op: Insert, U: u, V: v, W: w})
			break
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
