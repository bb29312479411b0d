package graph

import "math/rand"

// Generators for the static graphs and the preferential-attachment stream
// that programs and tests build workloads from. All generators are
// deterministic for a given *rand.Rand.

// GNM returns a uniform random simple graph with n vertices and (up to) m
// edges; weights are drawn uniformly from [1, maxW].
func GNM(n, m int, maxW Weight, rng *rand.Rand) *Graph {
	g := New(n)
	if n < 2 {
		return g
	}
	attempts := 0
	for g.M() < m && attempts < 20*m+100 {
		u := rng.Intn(n)
		v := rng.Intn(n)
		attempts++
		if u == v {
			continue
		}
		g.Insert(u, v, 1+Weight(rng.Int63n(int64(maxW))))
	}
	return g
}

// Path returns the path 0-1-...-n-1 with unit weights.
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.Insert(i, i+1, 1)
	}
	return g
}

// Grid returns an r x c grid graph (vertex = row*c+col) with weights drawn
// from [1, maxW]; pass maxW=1 for an unweighted grid.
func Grid(r, c int, maxW Weight, rng *rand.Rand) *Graph {
	g := New(r * c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := i*c + j
			if j+1 < c {
				g.Insert(v, v+1, randomWeight(maxW, rng))
			}
			if i+1 < r {
				g.Insert(v, v+c, randomWeight(maxW, rng))
			}
		}
	}
	return g
}

// RandomTree returns a uniformly random labeled tree on n vertices
// (random attachment), with weights drawn from [1, maxW].
func RandomTree(n int, maxW Weight, rng *rand.Rand) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		g.Insert(u, v, randomWeight(maxW, rng))
	}
	return g
}

// PrefAttachStream returns a well-formed update stream with
// preferential-attachment skew: inserts choose their existing endpoint
// degree-proportionally from a pool that lists every edge's endpoints, so
// a few hub vertices accumulate most of the edges, and roughly delFrac of
// the stream deletes a uniformly chosen present edge. The result is the
// power-law *churn* workload — hubs keep getting hit; RandomStream is its
// uniform-skew counterpart.
func PrefAttachStream(n, length int, delFrac float64, rng *rand.Rand) []Update {
	s := newEdgeSet(n, length)
	updates := make([]Update, 0, length)
	// Seed the pool with every vertex once so isolated vertices stay
	// reachable as attachment targets; each inserted edge then adds both
	// endpoints, making pool draws degree-proportional (plus one).
	pool := make([]int, n)
	for v := range pool {
		pool[v] = v
	}
	for len(updates) < length {
		if delFrac <= 0 || len(s.present) == 0 || rng.Float64() >= delFrac {
			if u, v, ok := drawEdge(s.g, pool, rng); ok {
				s.add(u, v, 1)
				pool = append(pool, u, v)
				updates = append(updates, Update{Op: Insert, U: u, V: v, W: 1})
				continue
			}
			// Dense corner: fall back to deleting so the stream always
			// reaches its length.
			if len(s.present) == 0 {
				break
			}
		}
		e := s.removeAt(rng.Intn(len(s.present)))
		updates = append(updates, Update{Op: Delete, U: e.U, V: e.V})
	}
	return updates
}
