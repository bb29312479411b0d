package graph

import "math/rand"

// Pair names the two endpoints of a connectivity (or matching) query;
// workload generators hand out Pairs for callers to lift into query ops.
type Pair struct {
	U, V int
}

// RandomPairs draws k uniform vertex pairs (u != v) on n vertices, the
// standard read workload for mixed read/write benchmarks.
func RandomPairs(n, k int, rng *rand.Rand) []Pair {
	if n < 2 {
		return nil
	}
	out := make([]Pair, 0, k)
	for len(out) < k {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		out = append(out, Pair{U: u, V: v})
	}
	return out
}

// RandomVerts draws k uniform vertex ids on n vertices, the read workload
// for single-vertex queries (OpMateOf, OpComponentOf).
func RandomVerts(n, k int, rng *rand.Rand) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}
