package graph

import "sort"

// MST oracles based on Kruskal's algorithm.

// MSFEdges returns a minimum spanning forest of g (one MST per component),
// with deterministic tie-breaking by (weight, u, v).
func MSFEdges(g *Graph) []WEdge {
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].W != edges[j].W {
			return edges[i].W < edges[j].W
		}
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	uf := newUnionFind(g.N())
	var out []WEdge
	for _, e := range edges {
		if uf.union(e.U, e.V) {
			out = append(out, e)
		}
	}
	return out
}

// MSFWeight returns the total weight of a minimum spanning forest of g.
func MSFWeight(g *Graph) Weight {
	var total Weight
	for _, e := range MSFEdges(g) {
		total += e.W
	}
	return total
}

// BucketWeight rounds w down to the representative of its (1+eps) bucket:
// bucket k holds weights in [(1+eps)^k, (1+eps)^{k+1}) and is represented
// by ⌊(1+eps)^k⌋. The representative b satisfies b <= w < b*(1+eps)+1+eps
// (the additive slack comes from integer truncation), so rounding all
// weights this way changes the MSF weight by at most a (1+eps) factor plus
// one unit per edge — the paper's §5.1 preprocessing uses exactly this
// bucketization.
func BucketWeight(w Weight, eps float64) Weight {
	if w <= 0 || eps <= 0 {
		return w
	}
	base := 1.0 + eps
	k := 0
	x := 1.0
	for x*base <= float64(w) {
		x *= base
		k++
	}
	return Weight(x)
}
