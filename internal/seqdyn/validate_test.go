package seqdyn

import (
	"fmt"

	"dmpc/internal/graph"
)

// The validators and oracle accessors below are read only by this
// package's tests, so they live beside them rather than in the package.

// Mate returns v's partner, or -1 if free.
func (m *NSMatch) Mate(v int) int { return int(m.mate[v]) }

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

// CheckInvariants verifies that tree/non-tree classification matches the
// actual forests and that non-tree edges never cross components. Used by
// tests; returns the first violation.
func (h *HDT) CheckInvariants() error {
	for e, lvl := range h.level {
		if h.isTree[e] {
			for i := 0; i <= lvl; i++ {
				if !h.forest[i].HasEdge(e.U, e.V) && !h.forest[i].HasEdge(e.V, e.U) {
					return fmt.Errorf("tree edge %v missing from forest %d (level %d)", e, i, lvl)
				}
			}
		} else {
			if !h.forest[lvl].Connected(e.U, e.V) {
				return fmt.Errorf("non-tree edge %v crosses components at level %d", e, lvl)
			}
		}
	}
	return nil
}

// Reset zeroes the counter and returns the previous value.
func (c *Counter) Reset() int64 {
	v := c.n
	c.n = 0
	return v
}

// HasEdge reports whether (u,v) is a tree edge of this forest.
func (t *ETT) HasEdge(u, v int) bool {
	_, ok := t.arc[arcKey(int32(u), int32(v))]
	return ok
}
