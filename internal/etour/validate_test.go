package etour

import (
	"fmt"
	"sort"
)

// The validators and oracle accessors below are read only by this
// package's tests, so they live beside them rather than in the package.

// CompSize returns the number of vertices in v's component.
func (fo *Forest) CompSize(v int) int { return fo.compSize[fo.comp[v]] }

// F returns f(v), the first appearance of v in its tour (0 for singletons).
func (fo *Forest) F(v int) int { return fo.f[v] }

// L returns l(v), the last appearance of v in its tour (0 for singletons).
func (fo *Forest) L(v int) int { return fo.l[v] }

// SameTree reports whether u and v are in the same tree.
func (fo *Forest) SameTree(u, v int) bool { return fo.comp[u] == fo.comp[v] }

// TreeNeighbors returns v's forest neighbors in ascending order.
func (fo *Forest) TreeNeighbors(v int) []int {
	out := make([]int, 0, len(fo.tadj[v]))
	for w := range fo.tadj[v] {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// PathEdgeTest reports whether tree edge (u,v) lies on the tree path
// between x and y, using only appearance intervals — the §5.1 ancestor
// trick: the edge's child endpoint must be an ancestor-or-self of exactly
// one of x, y.
func (fo *Forest) PathEdgeTest(u, v, x, y int) bool {
	if fo.comp[u] != fo.comp[x] || fo.comp[x] != fo.comp[y] {
		return false
	}
	// Child endpoint = the one nested inside the other.
	child := v
	if InSubtree(fo.f[u], fo.l[u], fo.f[v], fo.l[v]) {
		child = u
	}
	inX := fo.IsAncestor(child, x)
	inY := fo.IsAncestor(child, y)
	return inX != inY
}

// Validate checks all invariants: per component, the reconstructed tour is
// a valid Euler tour, f/l match the tour, and component sizes are right.
// It returns the first violation found.
func (fo *Forest) Validate() error {
	done := map[int64]bool{}
	counts := map[int64]int{}
	for v := 0; v < fo.n; v++ {
		counts[fo.comp[v]]++
	}
	for c, k := range counts {
		if fo.compSize[c] != k {
			return fmt.Errorf("component %d: size %d recorded, %d actual", c, fo.compSize[c], k)
		}
	}
	for v := 0; v < fo.n; v++ {
		c := fo.comp[v]
		if done[c] {
			continue
		}
		done[c] = true
		tour := fo.TourOf(v)
		if err := tour.Valid(); err != nil {
			return fmt.Errorf("component %d: %w", c, err)
		}
		for w := 0; w < fo.n; w++ {
			if fo.comp[w] != c {
				continue
			}
			wantF, wantL := tour.First(w), tour.Last(w)
			if fo.f[w] != wantF || fo.l[w] != wantL {
				return fmt.Errorf("vertex %d: f/l = %d/%d, tour says %d/%d",
					w, fo.f[w], fo.l[w], wantF, wantL)
			}
		}
	}
	return nil
}

// Root returns the tour's root (the vertex at position 1), or -1 for the
// empty tour.
func (t *Seq) Root() int {
	if len(t.s) == 0 {
		return -1
	}
	return t.s[0]
}

// Reroot rotates the tour so y becomes the root. No-op if y already is.
func (t *Seq) Reroot(y int) {
	if len(t.s) == 0 || t.s[0] == y {
		return
	}
	ly := t.Last(y) // 1-based; rotation starts at the arc (y, parent)
	rotated := make([]int, 0, len(t.s))
	rotated = append(rotated, t.s[ly-1:]...)
	rotated = append(rotated, t.s[:ly-1]...)
	t.s = rotated
}

// IsAncestor reports whether u is a (weak) ancestor of v in their common
// tree; false if they are in different trees.
func (fo *Forest) IsAncestor(u, v int) bool {
	if fo.comp[u] != fo.comp[v] {
		return false
	}
	if u == v {
		return true
	}
	return InSubtree(fo.f[v], fo.l[v], fo.f[u], fo.l[u])
}

// Slice returns a copy of the raw sequence.
func (t *Seq) Slice() []int { return append([]int(nil), t.s...) }
