package treedp

// Oracle is the sequential reference the equivalence harnesses replay
// against: a plain weight vector plus textbook tree walks over a forest
// adjacency. It is deliberately independent of the tour machinery — no
// positions, no anchors — so agreement with the distributed answers is
// evidence about the interval algebra, not a shared bug.
type Oracle struct {
	w []int64
}

// NewOracle returns an oracle over n vertices, all weights 0.
func NewOracle(n int) *Oracle { return &Oracle{w: make([]int64, n)} }

// SetWeight assigns v's weight.
func (o *Oracle) SetWeight(v int, w int64) { o.w[v] = w }

// component collects u's component in the forest adjacency, in BFS
// order, and returns parent pointers of the BFS tree rooted at u
// (parent[u] = -1; vertices outside the component keep parent -2).
func component(adj [][]int, u int) (verts []int, parent []int) {
	parent = make([]int, len(adj))
	for i := range parent {
		parent[i] = -2
	}
	parent[u] = -1
	verts = append(verts, u)
	for i := 0; i < len(verts); i++ {
		x := verts[i]
		for _, y := range adj[x] {
			if parent[y] == -2 {
				parent[y] = x
				verts = append(verts, y)
			}
		}
	}
	return verts, parent
}

// SubtreeSum answers OpSubtreeSum over the forest adjacency: the weight
// sum over the subtree of u when u's tree is rooted at r. When r is in a
// different component — or r == u — the subtree is u's whole component.
func (o *Oracle) SubtreeSum(adj [][]int, r, u int) int64 {
	verts, parent := component(adj, r)
	if parent[u] == -2 || u == r {
		// r unreachable from u (or trivially the whole tree): the
		// subtree degenerates to u's entire component.
		comp, _ := component(adj, u)
		var sum int64
		for _, x := range comp {
			sum += o.w[x]
		}
		return sum
	}
	// Rooted at r, subtree(u) = every vertex whose parent chain to r
	// passes through u. The BFS tree from r gives exactly those chains.
	var sum int64
	for _, x := range verts {
		for y := x; y != -1; y = parent[y] {
			if y == u {
				sum += o.w[x]
				break
			}
		}
	}
	return sum
}

// PathSum answers OpPathSum: the weight sum along the u–v tree path,
// endpoints included; 0 when disconnected; w(u) when u == v.
func (o *Oracle) PathSum(adj [][]int, u, v int) int64 {
	_, parent := component(adj, u)
	if parent[v] == -2 {
		return 0
	}
	var sum int64
	for y := v; y != -1; y = parent[y] {
		sum += o.w[y]
	}
	return sum
}

// TreeTop answers OpTreeTop: the id of the heaviest vertex of u's
// component (default weight 0), smallest id on ties.
func (o *Oracle) TreeTop(adj [][]int, u int) int64 {
	verts, _ := component(adj, u)
	best := u
	for _, x := range verts {
		if o.w[x] > o.w[best] || (o.w[x] == o.w[best] && x < best) {
			best = x
		}
	}
	return int64(best)
}
