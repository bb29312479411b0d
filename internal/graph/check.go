package graph

// Golden sequential checkers. These are the oracles every DMPC algorithm is
// validated against in the tests; they favor obviousness over speed.

// Components returns a canonical component labeling: comp[v] is the
// smallest vertex id in v's connected component.
func Components(g *Graph) []int {
	comp := make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	stack := make([]int, 0, g.N())
	for s := 0; s < g.N(); s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = s
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.EachNeighbor(v, func(w int, _ Weight) bool {
				if comp[w] == -1 {
					comp[w] = s
					stack = append(stack, w)
				}
				return true
			})
		}
	}
	return comp
}

// NumComponents returns the number of connected components (isolated
// vertices count).
func NumComponents(g *Graph) int {
	comp := Components(g)
	n := 0
	for v, c := range comp {
		if c == v {
			n++
		}
	}
	return n
}

// SameLabeling reports whether two labelings induce the same partition.
func SameLabeling(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[int]int)
	bwd := make(map[int]int)
	for i := range a {
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		if x, ok := bwd[b[i]]; ok && x != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		bwd[b[i]] = a[i]
	}
	return true
}

// IsSpanningForest reports whether the edge set f is a spanning forest of
// g: acyclic, every edge present in g, and connecting exactly g's
// components.
func IsSpanningForest(g *Graph, f []Edge) bool {
	uf := newUnionFind(g.N())
	for _, e := range f {
		if !g.Has(e.U, e.V) || !uf.union(e.U, e.V) {
			return false // a non-edge or a cycle
		}
	}
	forestComp := make([]int, g.N())
	for v := range forestComp {
		forestComp[v] = uf.find(v)
	}
	return SameLabeling(Components(g), forestComp)
}

// unionFind is a disjoint-set forest over 0..n-1 with path halving.
type unionFind []int

func newUnionFind(n int) unionFind {
	parent := make(unionFind, n)
	for i := range parent {
		parent[i] = i
	}
	return parent
}

func (p unionFind) find(x int) int {
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

// union merges the sets of a and b, linking a's root under b's, and
// reports whether they were distinct.
func (p unionFind) union(a, b int) bool {
	ra, rb := p.find(a), p.find(b)
	p[ra] = rb
	return ra != rb
}
