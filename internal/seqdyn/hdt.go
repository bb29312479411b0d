package seqdyn

import "dmpc/internal/graph"

// HDT is the fully-dynamic connectivity structure of Holm, de Lichtenberg
// and Thorup (J.ACM 2001), reference [21] of the paper: a hierarchy of
// O(log n) spanning forests in which deleted tree edges are replaced by
// searching non-tree edges level by level, amortizing to O(log² n) per
// update. It is the centralized algorithm behind the paper's Table 1
// reduction rows for connected components.
type HDT struct {
	n      int
	forest []*ETT                     // forest[i] spans edges of level >= i
	adj    []map[int32]map[int32]bool // adj[i][v] = non-tree neighbors at level i
	level  map[graph.Edge]int
	isTree map[graph.Edge]bool
	Ops    Counter
}

// NewHDT returns an empty structure on n vertices.
func NewHDT(n int) *HDT {
	lmax := 1
	for 1<<lmax < n {
		lmax++
	}
	// One spare level beyond the theoretical maximum guards the push-down
	// boundary (trees at level lmax have a single vertex, so the spare is
	// never populated in practice).
	h := &HDT{
		n:      n,
		forest: make([]*ETT, lmax+2),
		adj:    make([]map[int32]map[int32]bool, lmax+2),
		level:  make(map[graph.Edge]int),
		isTree: make(map[graph.Edge]bool),
	}
	for i := range h.forest {
		h.forest[i] = NewETT(&h.Ops)
		h.adj[i] = make(map[int32]map[int32]bool)
	}
	return h
}

// Connected reports whether u and v are connected.
func (h *HDT) Connected(u, v int) bool {
	h.Ops.Inc(1)
	return h.forest[0].Connected(u, v)
}

func (h *HDT) addNonTree(lvl int, u, v int32) {
	for _, pair := range [2][2]int32{{u, v}, {v, u}} {
		a, b := pair[0], pair[1]
		s := h.adj[lvl][a]
		if s == nil {
			s = make(map[int32]bool)
			h.adj[lvl][a] = s
		}
		if len(s) == 0 {
			h.forest[lvl].SetVertexFlag(int(a), true)
		}
		s[b] = true
		h.Ops.Inc(1)
	}
}

func (h *HDT) removeNonTree(lvl int, u, v int32) {
	for _, pair := range [2][2]int32{{u, v}, {v, u}} {
		a, b := pair[0], pair[1]
		s := h.adj[lvl][a]
		delete(s, b)
		if len(s) == 0 {
			h.forest[lvl].SetVertexFlag(int(a), false)
		}
		h.Ops.Inc(1)
	}
}

// Insert adds edge (u,v). Duplicate inserts and self-loops are no-ops.
func (h *HDT) Insert(u, v int) {
	if u == v {
		return
	}
	e := graph.NormEdge(u, v)
	if _, dup := h.level[e]; dup {
		return
	}
	h.level[e] = 0
	if !h.forest[0].Connected(u, v) {
		h.isTree[e] = true
		h.forest[0].Link(e.U, e.V)
		h.forest[0].SetEdgeFlag(e.U, e.V, true) // level exactly 0
		return
	}
	h.isTree[e] = false
	h.addNonTree(0, int32(e.U), int32(e.V))
}

// Delete removes edge (u,v); a removed tree edge triggers the level-wise
// replacement search. Unknown edges are no-ops.
func (h *HDT) Delete(u, v int) {
	e := graph.NormEdge(u, v)
	lvl, ok := h.level[e]
	if !ok {
		return
	}
	delete(h.level, e)
	if !h.isTree[e] {
		delete(h.isTree, e)
		h.removeNonTree(lvl, int32(e.U), int32(e.V))
		return
	}
	delete(h.isTree, e)
	// Remove from forests 0..lvl.
	for i := 0; i <= lvl; i++ {
		h.forest[i].Cut(e.U, e.V)
	}
	h.replace(e.U, e.V, lvl)
}

// replace searches for a replacement edge reconnecting u's and v's trees,
// starting at level lvl and descending to 0.
func (h *HDT) replace(u, v, lvl int) {
	for i := lvl; i >= 0; i-- {
		f := h.forest[i]
		// Work on the smaller tree; pick its representative endpoint.
		small := u
		if f.TreeSize(u) > f.TreeSize(v) {
			small = v
		}
		// Push all level-exactly-i tree edges of the small tree to i+1.
		for {
			a, b, ok := f.FindEdgeFlag(small)
			if !ok {
				break
			}
			te := graph.NormEdge(a, b)
			f.SetEdgeFlag(a, b, false)
			h.level[te] = i + 1
			h.forest[i+1].Link(a, b)
			h.forest[i+1].SetEdgeFlag(a, b, true)
			h.Ops.Inc(1)
		}
		// Scan level-i non-tree edges incident to the small tree.
		for {
			x, ok := f.FindVertexFlag(small)
			if !ok {
				break
			}
			x32 := int32(x)
			var found *graph.Edge
			for y := range h.adj[i][x32] {
				h.Ops.Inc(1)
				ne := graph.NormEdge(x, int(y))
				if f.Connected(x, int(y)) {
					// Both endpoints in the small tree: promote to i+1.
					h.removeNonTree(i, x32, y)
					h.addNonTree(i+1, x32, y)
					h.level[ne] = i + 1
					continue
				}
				// Crossing edge: replacement found.
				found = &ne
				break
			}
			if found != nil {
				fe := *found
				h.removeNonTree(i, int32(fe.U), int32(fe.V))
				h.isTree[fe] = true
				// level stays i; link into forests 0..i.
				for j := 0; j <= i; j++ {
					h.forest[j].Link(fe.U, fe.V)
				}
				h.forest[i].SetEdgeFlag(fe.U, fe.V, true)
				return
			}
		}
	}
}

// Components returns the number of connected components (all n vertices
// count, including isolated ones).
func (h *HDT) Components() int {
	g := graph.New(h.n)
	for e, tree := range h.isTree {
		if tree {
			g.Insert(e.U, e.V, 1)
		}
	}
	return graph.NumComponents(g)
}
