package seqdyn

import (
	"fmt"

	"dmpc/internal/graph"
)

// DynMSF maintains an exact minimum spanning forest under edge insertions
// and deletions.
//
// Insertions run in O(log n) amortized via link-cut path maxima (if the new
// edge closes a cycle, the heaviest cycle edge is evicted). Deletions of
// tree edges search the smaller side of the cut for the minimum-weight
// replacement by enumerating its vertices over an Euler-tour tree —
// correct, but O(smaller side) rather than the polylogarithmic bound of the
// full Holm et al. MSF; DESIGN.md records this substitution (the §7
// reduction's claim is "rounds proportional to sequential work", which the
// operation counter captures either way).
type DynMSF struct {
	lct     *LCT
	ett     *ETT // mirrors the tree edges, for smaller-side enumeration
	edgeID  map[graph.Edge]int
	edgeOf  map[int]graph.Edge
	weights map[graph.Edge]graph.Weight
	isTree  map[graph.Edge]bool
	adj     []map[int32]bool // full graph adjacency (tree + non-tree)
	Ops     Counter
}

// NewDynMSF returns an empty forest on n vertices.
func NewDynMSF(n int) *DynMSF {
	d := &DynMSF{
		edgeID:  make(map[graph.Edge]int),
		edgeOf:  make(map[int]graph.Edge),
		weights: make(map[graph.Edge]graph.Weight),
		isTree:  make(map[graph.Edge]bool),
		adj:     make([]map[int32]bool, n),
	}
	d.lct = NewLCT(n, &d.Ops)
	d.ett = NewETT(&d.Ops)
	for i := range d.adj {
		d.adj[i] = make(map[int32]bool)
	}
	return d
}

func (d *DynMSF) linkTree(e graph.Edge) {
	id := d.lct.AddNode(int64(d.weights[e]))
	d.edgeID[e] = id
	d.edgeOf[id] = e
	d.lct.Link(e.U, id)
	d.lct.Link(id, e.V)
	d.ett.Link(e.U, e.V)
	d.isTree[e] = true
}

func (d *DynMSF) cutTree(e graph.Edge) {
	id := d.edgeID[e]
	d.lct.Cut(e.U, id)
	d.lct.Cut(id, e.V)
	d.ett.Cut(e.U, e.V)
	delete(d.edgeID, e)
	delete(d.edgeOf, id)
	d.isTree[e] = false
}

// Insert adds edge (u,v) with weight w, restoring minimality. Duplicates
// and self-loops are no-ops.
func (d *DynMSF) Insert(u, v int, w graph.Weight) {
	if u == v {
		return
	}
	e := graph.NormEdge(u, v)
	if _, dup := d.weights[e]; dup {
		return
	}
	d.weights[e] = w
	d.adj[u][int32(v)] = true
	d.adj[v][int32(u)] = true
	d.Ops.Inc(1)
	if !d.lct.Connected(u, v) {
		d.linkTree(e)
		return
	}
	// Cycle: evict the heaviest edge if heavier than the new one.
	node, val := d.lct.PathMax(u, v)
	if val <= int64(w) {
		d.isTree[e] = false
		return
	}
	old := d.edgeOf[node]
	d.cutTree(old)
	d.linkTree(e)
}

// Delete removes edge (u,v); if it was a tree edge the minimum replacement
// across the cut is promoted. Unknown edges are no-ops.
func (d *DynMSF) Delete(u, v int) {
	e := graph.NormEdge(u, v)
	if _, ok := d.weights[e]; !ok {
		return
	}
	tree := d.isTree[e]
	delete(d.weights, e)
	delete(d.adj[e.U], int32(e.V))
	delete(d.adj[e.V], int32(e.U))
	d.Ops.Inc(1)
	if !tree {
		delete(d.isTree, e)
		return
	}
	d.cutTree(e)
	delete(d.isTree, e)

	// Enumerate the smaller side; scan its incident edges for the
	// minimum-weight crossing edge.
	side := e.U
	if d.ett.TreeSize(e.U) > d.ett.TreeSize(e.V) {
		side = e.V
	}
	var best graph.Edge
	bestW := graph.Weight(0)
	found := false
	for _, x := range d.ett.TourVertices(side) {
		for y := range d.adj[x] {
			d.Ops.Inc(1)
			ne := graph.NormEdge(x, int(y))
			if d.isTree[ne] {
				continue
			}
			if d.ett.Connected(x, int(y)) {
				continue // internal to the small side
			}
			w := d.weights[ne]
			if !found || w < bestW || (w == bestW && less(ne, best)) {
				best, bestW, found = ne, w, true
			}
		}
	}
	if found {
		d.linkTree(best)
	}
}

func less(a, b graph.Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// Connected reports whether u and v are connected in the current graph.
func (d *DynMSF) Connected(u, v int) bool { return d.ett.Connected(u, v) }

// Weight returns the total weight of the maintained forest.
func (d *DynMSF) Weight() graph.Weight {
	var total graph.Weight
	for e, tree := range d.isTree {
		if tree {
			total += d.weights[e]
		}
	}
	return total
}

// ForestEdges returns the current forest's edges.
func (d *DynMSF) ForestEdges() []graph.Edge {
	var out []graph.Edge
	for e, tree := range d.isTree {
		if tree {
			out = append(out, e)
		}
	}
	return out
}

// CheckInvariants verifies the forest is consistent (every tree edge is in
// both the LCT and ETT mirrors).
func (d *DynMSF) CheckInvariants() error {
	for e, tree := range d.isTree {
		if !tree {
			continue
		}
		if _, ok := d.edgeID[e]; !ok {
			return fmt.Errorf("tree edge %v missing LCT node", e)
		}
		if !d.ett.Connected(e.U, e.V) {
			return fmt.Errorf("tree edge %v not connected in ETT", e)
		}
	}
	return nil
}
