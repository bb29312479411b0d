package seqdyn

import (
	"math"
	"slices"
)

// NSMatch is a fully-dynamic maximal matching in the style of Neiman and
// Solomon [30], the algorithm §3 of the paper distributes: vertices are
// light (degree < 2√cap) or heavy; a heavy vertex that loses its mate
// either finds a free neighbor among its first ~√(2·cap) "alive" neighbors
// or steals a neighbor whose mate is light (such a neighbor exists by a
// degree-counting argument), and the light ex-mate rematches by a full scan
// of its short adjacency list. All updates take O(√cap) worst-case time.
//
// capEdges is the declared maximum number of edges alive at any time,
// matching the paper's convention that m is the maximum over the sequence.
type NSMatch struct {
	n        int
	heavyAt  int // degree threshold for "heavy": 2·⌈√cap⌉
	aliveCap int // alive-window size: ⌈√(2·cap)⌉
	adj      []map[int32]bool
	mate     []int32
	Ops      Counter
}

// NewNSMatch returns an empty matching structure for n vertices and at
// most capEdges simultaneous edges.
func NewNSMatch(n, capEdges int) *NSMatch {
	if capEdges < 1 {
		capEdges = 1
	}
	m := &NSMatch{
		n:        n,
		heavyAt:  2 * int(math.Ceil(math.Sqrt(float64(capEdges)))),
		aliveCap: int(math.Ceil(math.Sqrt(2 * float64(capEdges)))),
		adj:      make([]map[int32]bool, n),
		mate:     make([]int32, n),
	}
	for i := range m.adj {
		m.adj[i] = make(map[int32]bool)
		m.mate[i] = -1
	}
	return m
}

// MateTable returns a copy of the full mate table.
func (m *NSMatch) MateTable() []int {
	out := make([]int, m.n)
	for i, x := range m.mate {
		out[i] = int(x)
	}
	return out
}

// nbrs returns z's neighbors in ascending order, so which neighbor a scan
// meets first — and with it the operation count §7 bills — does not depend
// on map iteration order.
func (m *NSMatch) nbrs(z int) []int32 {
	out := make([]int32, 0, len(m.adj[z]))
	for w := range m.adj[z] {
		out = append(out, w)
	}
	slices.Sort(out)
	return out
}

func (m *NSMatch) heavy(v int) bool { return len(m.adj[v]) >= m.heavyAt }

func (m *NSMatch) match(a, b int) {
	m.mate[a] = int32(b)
	m.mate[b] = int32(a)
	m.Ops.Inc(1)
}

func (m *NSMatch) unmatch(a, b int) {
	m.mate[a] = -1
	m.mate[b] = -1
	m.Ops.Inc(1)
}

// Insert adds edge (u,v). Duplicates and self-loops are no-ops.
func (m *NSMatch) Insert(u, v int) {
	if u == v || m.adj[u][int32(v)] {
		return
	}
	m.adj[u][int32(v)] = true
	m.adj[v][int32(u)] = true
	m.Ops.Inc(1)
	uFree, vFree := m.mate[u] == -1, m.mate[v] == -1
	switch {
	case uFree && vFree:
		m.match(u, v)
	case uFree && m.heavy(u):
		// Restore the heavy-vertices-matched invariant by stealing.
		m.rematchHeavy(u)
	case vFree && m.heavy(v):
		m.rematchHeavy(v)
	}
}

// Delete removes edge (u,v). Unknown edges are no-ops.
func (m *NSMatch) Delete(u, v int) {
	if u == v || !m.adj[u][int32(v)] {
		return
	}
	delete(m.adj[u], int32(v))
	delete(m.adj[v], int32(u))
	m.Ops.Inc(1)
	if int(m.mate[u]) != v {
		return
	}
	m.unmatch(u, v)
	m.rematch(u)
	m.rematch(v)
}

// rematch restores maximality (and the heavy invariant) around a vertex
// that just became free.
func (m *NSMatch) rematch(z int) {
	if m.mate[z] != -1 {
		return // matched in the meantime (by the other endpoint's rematch)
	}
	if !m.heavy(z) {
		m.rematchLight(z)
		return
	}
	m.rematchHeavy(z)
}

// rematchLight scans the (short) full adjacency list for a free neighbor.
func (m *NSMatch) rematchLight(z int) {
	for _, w := range m.nbrs(z) {
		m.Ops.Inc(1)
		if m.mate[w] == -1 {
			m.match(z, int(w))
			return
		}
	}
}

// rematchHeavy scans the alive window for a free neighbor; failing that it
// steals a neighbor with a light mate and rematches the light ex-mate.
func (m *NSMatch) rematchHeavy(z int) {
	scanned := 0
	stealFrom := -1
	nbrs := m.nbrs(z)
	for _, w := range nbrs {
		m.Ops.Inc(1)
		if m.mate[w] == -1 {
			m.match(z, int(w))
			return
		}
		if stealFrom == -1 && !m.heavy(int(m.mate[w])) {
			stealFrom = int(w)
		}
		scanned++
		if scanned >= m.aliveCap && stealFrom != -1 {
			break
		}
	}
	if stealFrom == -1 {
		// The scan stops early only once it holds a surrogate, so it
		// read every neighbor: nothing to steal (all mates heavy), and
		// z stays free.
		return
	}
	lightMate := int(m.mate[stealFrom])
	m.unmatch(stealFrom, lightMate)
	m.match(z, stealFrom)
	m.rematchLight(lightMate)
}
