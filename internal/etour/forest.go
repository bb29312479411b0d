package etour

import "fmt"

// EdgePos holds the four tour positions contributed by one tree edge
// (U,V), U < V: arc U->V occupies (UV[0], UV[1]) and arc V->U occupies
// (VU[0], VU[1]). All positions are 1-based.
type EdgePos struct {
	U, V int
	UV   [2]int
	VU   [2]int
}

// positionsOf returns the two positions at which vertex v appears on this
// edge (one per arc).
func (e *EdgePos) positionsOf(v int) [2]int {
	if v == e.U {
		return [2]int{e.UV[0], e.VU[1]}
	}
	return [2]int{e.UV[1], e.VU[0]}
}

// Forest maintains Euler tours of a spanning forest purely through the
// index arithmetic of §5: per tree edge the four arc positions, per vertex
// the first/last appearance f(v), l(v) and a component id. Structural
// operations return the Shift descriptors that a distributed implementation
// would broadcast; Forest itself applies them to its own state, serving
// both as the reference implementation and as the shard engine used by the
// DMPC connectivity algorithm.
type Forest struct {
	n        int
	comp     []int64
	f, l     []int
	tadj     []map[int]*EdgePos // v -> neighbor -> shared edge record
	compSize map[int64]int
	nextComp int64
}

// NewForest returns a forest of n singleton trees; vertex v starts in
// component int64(v).
func NewForest(n int) *Forest {
	fo := &Forest{
		n:        n,
		comp:     make([]int64, n),
		f:        make([]int, n),
		l:        make([]int, n),
		tadj:     make([]map[int]*EdgePos, n),
		compSize: make(map[int64]int, n),
		nextComp: int64(n),
	}
	for v := 0; v < n; v++ {
		fo.comp[v] = int64(v)
		fo.compSize[int64(v)] = 1
		fo.tadj[v] = make(map[int]*EdgePos)
	}
	return fo
}

// Comp returns v's component id.
func (fo *Forest) Comp(v int) int64 { return fo.comp[v] }

// members returns the vertices currently labeled with component c.
func (fo *Forest) members(c int64) []int {
	var out []int
	for v := 0; v < fo.n; v++ {
		if fo.comp[v] == c {
			out = append(out, v)
		}
	}
	return out
}

// applyShiftToEdges transforms the edge positions of the given vertices
// according to s. Per-vertex f/l values are NOT updated here — a reroot
// rotation does not commute with min/max, so callers recompute f/l from the
// transformed edge records afterwards (in the distributed setting, f/l are
// learned on demand the same way).
func (fo *Forest) applyShiftToEdges(s Shift, members []int) {
	seen := map[*EdgePos]bool{}
	for _, v := range members {
		for _, e := range fo.tadj[v] {
			if !seen[e] {
				seen[e] = true
				s.ApplyEdge(e)
			}
		}
	}
}

func (fo *Forest) recomputeAll(members []int) {
	for _, v := range members {
		fo.recomputeFL(v)
	}
}

// recomputeFL refreshes f(v) and l(v) from v's incident edge records
// (needed after an incident edge was added or removed).
func (fo *Forest) recomputeFL(v int) {
	if len(fo.tadj[v]) == 0 {
		fo.f[v], fo.l[v] = 0, 0
		return
	}
	first, last := int(^uint(0)>>1), 0
	for _, e := range fo.tadj[v] {
		p := e.positionsOf(v)
		for _, i := range p {
			if i < first {
				first = i
			}
			if i > last {
				last = i
			}
		}
	}
	fo.f[v], fo.l[v] = first, last
}

// Reroot makes y the root of its tree, returning the broadcast shift (nil
// if y already is the root or is a singleton).
func (fo *Forest) Reroot(y int) []Shift {
	size := fo.compSize[fo.comp[y]]
	if size <= 1 || fo.f[y] == 1 {
		return nil
	}
	L := 4 * (size - 1)
	s := Shift{Kind: ShiftReroot, Comp: fo.comp[y], NewComp: fo.comp[y], A: L, B: fo.l[y]}
	mem := fo.members(fo.comp[y])
	fo.applyShiftToEdges(s, mem)
	fo.recomputeAll(mem)
	return []Shift{s}
}

// Link adds tree edge (x,y), merging y's tree into x's. It returns the
// ordered shifts a distributed implementation broadcasts (reroot of y's
// tree, host tail shift, guest shift) — the order is significant: applying
// them sequentially to any stored position yields the correct result.
func (fo *Forest) Link(x, y int) []Shift {
	if fo.comp[x] == fo.comp[y] {
		panic(fmt.Sprintf("etour: Link(%d,%d) within one tree", x, y))
	}
	shifts := fo.Reroot(y)

	compX, compY := fo.comp[x], fo.comp[y]
	hostMem := fo.members(compX)
	guestMem := fo.members(compY)
	sizeX, sizeY := fo.compSize[compX], fo.compSize[compY]
	Ly := 4 * (sizeY - 1)

	// Splice point: an even-aligned appearance of x.
	q := 0
	switch {
	case sizeX == 1:
		q = 0
	case fo.f[x] == 1: // x is the root of its tree
		q = 4 * (sizeX - 1)
	default:
		q = fo.f[x]
	}

	host := Shift{Kind: ShiftLinkHost, Comp: compX, NewComp: compX, A: q, B: Ly}
	fo.applyShiftToEdges(host, hostMem)
	shifts = append(shifts, host)

	guest := Shift{Kind: ShiftLinkGuest, Comp: compY, NewComp: compX, A: q, B: Ly}
	fo.applyShiftToEdges(guest, guestMem)
	shifts = append(shifts, guest)
	for _, v := range guestMem {
		fo.comp[v] = compX
	}

	e := &EdgePos{U: min(x, y), V: max(x, y)}
	if e.U == x {
		e.UV = [2]int{q + 1, q + 2}
		e.VU = [2]int{q + Ly + 3, q + Ly + 4}
	} else {
		// Arc x->y is arc V->U in normalized storage.
		e.VU = [2]int{q + 1, q + 2}
		e.UV = [2]int{q + Ly + 3, q + Ly + 4}
	}
	fo.tadj[x][y] = e
	fo.tadj[y][x] = e
	fo.recomputeAll(hostMem)
	fo.recomputeAll(guestMem)

	fo.compSize[compX] = sizeX + sizeY
	delete(fo.compSize, compY)
	return shifts
}

// Cut removes tree edge (x,y), splitting the tree. The subtree side (the
// child's side) moves to a fresh component. It returns the ordered
// broadcast shifts and the new component's id.
func (fo *Forest) Cut(x, y int) ([]Shift, int64) {
	if _, ok := fo.tadj[x][y]; !ok {
		panic(fmt.Sprintf("etour: Cut(%d,%d): not a tree edge", x, y))
	}
	// Make x the parent: the child's appearance interval nests inside the
	// parent's.
	if InSubtree(fo.f[x], fo.l[x], fo.f[y], fo.l[y]) {
		x, y = y, x
	}
	fy, ly := fo.f[y], fo.l[y]
	oldComp := fo.comp[x]
	newComp := fo.nextComp
	fo.nextComp++
	L := 4 * (fo.compSize[oldComp] - 1)

	mem := fo.members(oldComp)
	// Subtree membership is decided on pre-shift appearance intervals.
	var subMem []int
	for _, v := range mem {
		if InSubtree(fo.f[v], fo.l[v], fy, ly) {
			subMem = append(subMem, v)
		}
	}

	delete(fo.tadj[x], y)
	delete(fo.tadj[y], x)

	repair := Shift{Kind: ShiftCutRepair, Comp: oldComp, NewComp: oldComp, A: fy, B: ly, C: L}
	sub := Shift{Kind: ShiftCutSub, Comp: oldComp, NewComp: newComp, A: fy, B: ly}
	rest := Shift{Kind: ShiftCutRest, Comp: oldComp, NewComp: oldComp, A: fy, B: ly}
	// The repair map only affects the removed edge's own positions, which
	// were just deleted with the record; it is emitted for subscribers
	// holding mirrored anchor positions.
	fo.applyShiftToEdges(sub, mem)
	fo.applyShiftToEdges(rest, mem)

	for _, v := range subMem {
		fo.comp[v] = newComp
	}
	fo.recomputeAll(mem)

	subSize := (ly-fy-1)/4 + 1
	fo.compSize[oldComp] -= subSize
	fo.compSize[newComp] = subSize
	return []Shift{repair, sub, rest}, newComp
}

// TourOf reconstructs the materialized tour of v's component from the
// stored edge positions — used by tests, figures and debugging only; the
// dynamic algorithms never materialize tours.
func (fo *Forest) TourOf(v int) *Seq {
	compID := fo.comp[v]
	size := fo.compSize[compID]
	L := 4 * (size - 1)
	if L <= 0 {
		return &Seq{}
	}
	s := make([]int, L)
	filled := make([]bool, L)
	seen := map[*EdgePos]bool{}
	place := func(pos, vert int) {
		if pos < 1 || pos > L {
			panic(fmt.Sprintf("etour: position %d outside tour of length %d", pos, L))
		}
		if filled[pos-1] && s[pos-1] != vert {
			panic(fmt.Sprintf("etour: position %d assigned to both %d and %d", pos, s[pos-1], vert))
		}
		s[pos-1] = vert
		filled[pos-1] = true
	}
	for w := 0; w < fo.n; w++ {
		if fo.comp[w] != compID {
			continue
		}
		for _, e := range fo.tadj[w] {
			if seen[e] {
				continue
			}
			seen[e] = true
			place(e.UV[0], e.U)
			place(e.UV[1], e.V)
			place(e.VU[0], e.V)
			place(e.VU[1], e.U)
		}
	}
	for i, ok := range filled {
		if !ok {
			panic(fmt.Sprintf("etour: position %d unassigned", i+1))
		}
	}
	return &Seq{s: s}
}

// BuildFromTree initializes the forest from the trees of a tree adjacency
// (vertex -> neighbors), one call per tree, assigning the canonical DFS
// tour rooted at root — the tour the paper's figures start from.
func (fo *Forest) BuildFromTree(adj map[int][]int, root int) {
	seq := BuildSeq(adj, root)
	compID := fo.comp[root]
	// Collect vertices of this tree.
	verts := map[int]bool{root: true}
	for _, v := range seq.s {
		verts[v] = true
	}
	for v := range verts {
		fo.comp[v] = compID
		fo.f[v] = seq.First(v)
		fo.l[v] = seq.Last(v)
		delete(fo.compSize, int64(v))
	}
	fo.compSize[compID] = len(verts)
	// Edge records from arc positions: arcs at (2k-1, 2k).
	type arc struct{ a, b int }
	arcPos := map[arc][2]int{}
	for k := 0; 2*k < seq.Len(); k++ {
		a, b := seq.s[2*k], seq.s[2*k+1]
		arcPos[arc{a, b}] = [2]int{2*k + 1, 2*k + 2}
	}
	for ab, p := range arcPos {
		if ab.a > ab.b {
			continue
		}
		rev := arcPos[arc{ab.b, ab.a}]
		e := &EdgePos{U: ab.a, V: ab.b, UV: p, VU: rev}
		fo.tadj[ab.a][ab.b] = e
		fo.tadj[ab.b][ab.a] = e
	}
}
