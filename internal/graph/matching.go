package graph

// Matching oracles over a mate table (mate[v] = partner of v, or -1 if v
// is free): size, validity, maximality, length-3 augmenting paths and the
// exact maximum matching size on small graphs.

// MatchingSize returns the number of matched edges in a mate table.
func MatchingSize(mate []int) int {
	k := 0
	for v, m := range mate {
		if m > v {
			k++
		}
	}
	return k
}

// IsMatching reports whether mate is a consistent matching whose edges all
// exist in g.
func IsMatching(g *Graph, mate []int) bool {
	if len(mate) != g.N() {
		return false
	}
	for v, m := range mate {
		if m == -1 {
			continue
		}
		if m < 0 || m >= g.N() || m == v {
			return false
		}
		if mate[m] != v {
			return false
		}
		if !g.Has(v, m) {
			return false
		}
	}
	return true
}

// IsMaximalMatching reports whether mate is a matching of g with no edge
// having both endpoints free.
func IsMaximalMatching(g *Graph, mate []int) bool {
	if !IsMatching(g, mate) {
		return false
	}
	return CountFreeFreeEdges(g, mate) == 0
}

// CountFreeFreeEdges counts edges of g whose endpoints are both unmatched —
// the "maximality deficit" used to validate the almost-maximal matching of
// §6 (a proper maximal matching has deficit zero).
func CountFreeFreeEdges(g *Graph, mate []int) int {
	deficit := 0
	for _, e := range g.Edges() {
		if mate[e.U] == -1 && mate[e.V] == -1 {
			deficit++
		}
	}
	return deficit
}

// HasLength3AugPath reports whether g has an augmenting path of length 3
// with respect to the matching: free - matched(u,v) - free. By the
// Hopcroft–Karp bound, a maximal matching without such paths is a
// 3/2-approximation of the maximum matching (k=2 in Lemma of [22]).
func HasLength3AugPath(g *Graph, mate []int) bool {
	hasFreeNeighborOtherThan := func(v, excl1, excl2 int) bool {
		found := false
		g.EachNeighbor(v, func(w int, _ Weight) bool {
			if w != excl1 && w != excl2 && mate[w] == -1 {
				found = true
				return false
			}
			return true
		})
		return found
	}
	for v, m := range mate {
		if m <= v {
			continue
		}
		// Matched edge (v,m): augmenting path of length 3 exists iff both
		// endpoints have a free neighbor (distinct free endpoints).
		if !hasFreeNeighborOtherThan(v, m, -1) {
			continue
		}
		// v has some free neighbor a; m needs a free neighbor b != a.
		// Collect v's free neighbors; if >= 2, any free neighbor of m works.
		var frees []int
		g.EachNeighbor(v, func(w int, _ Weight) bool {
			if w != m && mate[w] == -1 {
				frees = append(frees, w)
			}
			return len(frees) < 2
		})
		excl := -1
		if len(frees) == 1 {
			excl = frees[0]
		}
		if hasFreeNeighborOtherThan(m, v, excl) {
			return true
		}
	}
	return false
}

// MaxMatchingSize computes the exact maximum matching size of g by dynamic
// programming over vertex subsets. It panics for n > 22; it exists to
// validate approximation factors on small instances.
func MaxMatchingSize(g *Graph) int {
	n := g.N()
	if n > 22 {
		panic("graph: MaxMatchingSize limited to n <= 22")
	}
	adj := make([]uint32, n)
	for v := 0; v < n; v++ {
		g.EachNeighbor(v, func(w int, _ Weight) bool {
			adj[v] |= 1 << uint(w)
			return true
		})
	}
	memo := make([]int8, 1<<uint(n))
	for i := range memo {
		memo[i] = -1
	}
	var solve func(mask uint32) int8
	solve = func(mask uint32) int8 {
		if mask == 0 {
			return 0
		}
		if memo[mask] >= 0 {
			return memo[mask]
		}
		// Lowest set bit = lowest unprocessed vertex.
		v := 0
		for mask&(1<<uint(v)) == 0 {
			v++
		}
		rest := mask &^ (1 << uint(v))
		best := solve(rest) // leave v unmatched
		cand := adj[v] & rest
		for cand != 0 {
			w := 0
			for cand&(1<<uint(w)) == 0 {
				w++
			}
			cand &^= 1 << uint(w)
			if s := solve(rest&^(1<<uint(w))) + 1; s > best {
				best = s
			}
		}
		memo[mask] = best
		return best
	}
	full := uint32(1)<<uint(n) - 1
	return int(solve(full))
}
