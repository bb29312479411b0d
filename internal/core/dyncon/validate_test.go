package dyncon

import (
	"fmt"
	"reflect"
	"slices"

	"dmpc/internal/etour"
	"dmpc/internal/graph"
)

// The validators and oracle accessors below are read only by this
// package's tests, so they live beside them rather than in the package.

// NonTreeEdges returns the stored non-tree records (driver-side oracle).
func (d *D) NonTreeEdges() []graph.WEdge {
	var out []graph.WEdge
	for _, sh := range d.shards {
		for k, rec := range sh.nontree {
			if int(k.U)%len(d.shards) == sh.id {
				out = append(out, graph.WEdge{U: int(k.U), V: int(k.V), W: graph.Weight(rec.w)})
			}
		}
	}
	return out
}

// Validate cross-checks the distributed state: owner copies of each record
// must agree, every component's positions must reassemble into a valid
// Euler tour, each live component's size and holder set must be filed at its
// registry alone and match its vertices (and no dead label keep one), every
// non-tree anchor must be a genuine appearance of its endpoint with
// consistent component labels, and no orchestration entry may be left
// behind at quiescence.
// Driver-side; used by tests after every update.
func (d *D) Validate() error {
	type agg struct {
		rec  treeRec
		seen int
	}
	all := map[graph.Edge]*agg{}
	for _, sh := range d.shards {
		for k, rec := range sh.tree {
			if a, ok := all[k]; ok {
				a.seen++
				if a.rec.pos != rec.pos || a.rec.comp != rec.comp || a.rec.w != rec.w {
					return fmt.Errorf("edge %v: owner copies disagree", k)
				}
			} else {
				all[k] = &agg{rec: *rec, seen: 1}
			}
		}
	}
	for ge, a := range all {
		want := 2
		if d.owner(ge.U) == d.owner(ge.V) {
			want = 1
		}
		if a.seen != want {
			return fmt.Errorf("edge %v: %d copies, want %d", ge, a.seen, want)
		}
	}

	// The compVerts inverse index must mirror verts exactly on every
	// shard: each owned vertex listed once under its current label, no
	// stale or duplicate entries. The link and cut relabel loops walk this
	// index instead of scanning verts, so drift here would silently skip
	// (or double-apply) component relabels.
	for _, sh := range d.shards {
		listed := 0
		seen := make(map[int32]bool, len(sh.verts))
		for comp, vs := range sh.compVerts {
			for _, v := range vs {
				if seen[v] {
					return fmt.Errorf("machine %d: vertex %d listed twice in compVerts", sh.id, v)
				}
				seen[v] = true
				if got, ok := sh.verts[v]; !ok || got != comp {
					return fmt.Errorf("machine %d: compVerts files vertex %d under %d, verts says %d", sh.id, v, comp, got)
				}
			}
			listed += len(vs)
		}
		if listed != len(sh.verts) {
			return fmt.Errorf("machine %d: compVerts indexes %d vertices, verts holds %d", sh.id, listed, len(sh.verts))
		}
		if err := sh.auditAdj(); err != nil {
			return fmt.Errorf("machine %d: %w", sh.id, err)
		}
	}

	// Registry sizes and holder sets vs vertex labels: one size per live
	// component, and one holder set per live component of two or more
	// vertices, at its registry and nowhere else. Links and cuts are sent to
	// the holder set, so a missing holder would skip a rewrite: a stored list
	// must be exactly the machines owning a vertex of the component, fewer
	// than µ/2; all is a superset and always allowed. Each registry bills the
	// ids it stores.
	counts := map[int64]int{}
	for v := 0; v < d.cfg.N; v++ {
		counts[d.CompOf(v)]++
	}
	for _, sh := range d.shards {
		for c := range sh.sizes {
			if counts[c] == 0 {
				return fmt.Errorf("machine %d: registry keeps a size for component %d, which no vertex carries", sh.id, c)
			}
			if r := d.registry(c); r != sh.id {
				return fmt.Errorf("machine %d: registry size for component %d filed here, its registry is machine %d", sh.id, c, r)
			}
		}
		words := 0
		for c, h := range sh.holders {
			if r := d.registry(c); r != sh.id {
				return fmt.Errorf("machine %d: holder set for component %d filed here, its registry is machine %d", sh.id, c, r)
			}
			if counts[c] < 2 {
				return fmt.Errorf("machine %d: registry keeps a holder set for component %d of %d vertices", sh.id, c, counts[c])
			}
			words += len(h.ids)
		}
		if words != sh.holderWords {
			return fmt.Errorf("machine %d: MemWords bills %d holder ids, its holder lists store %d", sh.id, sh.holderWords, words)
		}
	}
	for c, k := range counts {
		reg := d.shards[d.registry(c)]
		if got := reg.sizes[c]; got != k {
			return fmt.Errorf("component %d: registry size %d, actual %d", c, got, k)
		}
		if h := reg.holders[c]; k > 1 && !h.all {
			var want []int32
			for _, sh := range d.shards {
				if len(sh.compVerts[c]) > 0 {
					want = append(want, int32(sh.id))
				}
			}
			if !slices.Equal(h.ids, want) || 2*len(want) >= len(d.shards) {
				return fmt.Errorf("component %d: registry holder list %v, holders %v of %d machines", c, h.ids, want, len(d.shards))
			}
		}
	}

	// Reassemble tours per component.
	tours := map[int64][]int{}
	for c, k := range counts {
		tours[c] = make([]int, 4*(k-1))
	}
	place := func(c int64, pos, vert int) error {
		t := tours[c]
		if pos < 1 || pos > len(t) {
			return fmt.Errorf("component %d: position %d outside tour of length %d", c, pos, len(t))
		}
		if t[pos-1] != 0 && t[pos-1] != vert+1 {
			return fmt.Errorf("component %d: position %d claimed by %d and %d", c, pos, t[pos-1]-1, vert)
		}
		t[pos-1] = vert + 1 // store +1 so 0 means empty
		return nil
	}
	for ge, a := range all {
		c := a.rec.comp
		if d.CompOf(ge.U) != c || d.CompOf(ge.V) != c {
			return fmt.Errorf("edge %v: component label %d disagrees with endpoints", ge, c)
		}
		p := a.rec.pos
		for _, pv := range [4][2]int{{p.UV[0], p.U}, {p.UV[1], p.V}, {p.VU[0], p.V}, {p.VU[1], p.U}} {
			if err := place(c, pv[0], pv[1]); err != nil {
				return err
			}
		}
	}
	appear := map[int64]map[int]map[int]bool{} // comp -> vertex -> positions
	for c, t := range tours {
		seq := make([]int, len(t))
		appear[c] = map[int]map[int]bool{}
		for i, x := range t {
			if x == 0 {
				return fmt.Errorf("component %d: position %d unassigned", c, i+1)
			}
			seq[i] = x - 1
			if appear[c][x-1] == nil {
				appear[c][x-1] = map[int]bool{}
			}
			appear[c][x-1][i+1] = true
		}
		if err := etour.SeqFromSlice(seq).Valid(); err != nil {
			return fmt.Errorf("component %d: %w", c, err)
		}
	}

	// Non-tree anchors.
	seenNT := map[graph.Edge]bool{}
	for _, sh := range d.shards {
		for ge, rec := range sh.nontree {
			if seenNT[ge] {
				continue
			}
			seenNT[ge] = true
			cu, cv := d.CompOf(ge.U), d.CompOf(ge.V)
			if cu != cv {
				return fmt.Errorf("non-tree edge %v spans components %d and %d", ge, cu, cv)
			}
			if rec.cU != cu || rec.cV != cv {
				return fmt.Errorf("non-tree edge %v: anchor comps (%d,%d) want %d", ge, rec.cU, rec.cV, cu)
			}
			for _, av := range [2][2]int{{rec.aU, ge.U}, {rec.aV, ge.V}} {
				anchor, vert := av[0], av[1]
				if anchor == 0 {
					return fmt.Errorf("non-tree edge %v: lingering singleton anchor for %d", ge, vert)
				}
				if !appear[cu][vert][anchor] {
					return fmt.Errorf("non-tree edge %v: anchor %d is not an appearance of %d", ge, anchor, vert)
				}
			}
		}
	}

	// Weight partials (tree DP): each record lives at its vertex's owner
	// only, mirrors the vertex's live component label, and anchors a
	// genuine surviving tour appearance — 0 exactly for singletons. Like
	// the compVerts rule, this is mirrored-by-construction state, so
	// every perm/fuzz suite calling Validate exercises the Shift repair
	// rule for free.
	for _, sh := range d.shards {
		for v, rec := range sh.weights {
			if d.owner(int(v)) != sh.id {
				return fmt.Errorf("weight record for %d held by machine %d, owner is %d", v, sh.id, d.owner(int(v)))
			}
			c := d.CompOf(int(v))
			if rec.Comp != c {
				return fmt.Errorf("weight record for %d: component %d, verts says %d", v, rec.Comp, c)
			}
			if counts[c] == 1 {
				if rec.Anchor != 0 {
					return fmt.Errorf("weight record for singleton %d: anchor %d, want 0", v, rec.Anchor)
				}
				continue
			}
			if rec.Anchor == 0 {
				return fmt.Errorf("weight record for %d: lingering singleton anchor", v)
			}
			if !appear[c][int(v)][rec.Anchor] {
				return fmt.Errorf("weight record for %d: anchor %d is not an appearance", v, rec.Anchor)
			}
		}
	}

	// The orchestration tables: an update or DP query that finished retired
	// its record, so a leftover is an op some window started and never
	// completed, and a retired record that is not zero was written after
	// its retirement.
	for _, sh := range d.shards {
		if n := len(sh.pend.live) + len(sh.qpend.live); n != 0 {
			return fmt.Errorf("machine %d: %d unfinished orchestrations (pend %d, qpend %d) at quiescence", sh.id, n, len(sh.pend.live), len(sh.qpend.live))
		}
		if err := auditRetired(sh.id, &sh.pend); err != nil {
			return err
		}
		if err := auditRetired(sh.id, &sh.qpend); err != nil {
			return err
		}
	}
	return nil
}

// auditRetired checks that every retired record of r is zero.
func auditRetired[T any](id int, r *records[T]) error {
	for _, p := range r.free {
		if !reflect.ValueOf(p).Elem().IsZero() {
			return fmt.Errorf("machine %d: retired %T record reads %+v", id, *p, *p)
		}
	}
	return nil
}

// auditAdj checks the adjacency and the rings against the by-edge maps,
// which they must mirror exactly: every tree record listed once under each
// endpoint the shard owns, marked unfiled at the other, every record once on
// the ring of its home vertex's label, and nothing else listed — no foreign
// vertex, no drained entry, no stale record. Handlers reach records only
// through them, so drift would silently skip (or double-apply) a Shift.
func (s *shard) auditAdj() error {
	listed := map[*treeRec][2]int{} // record -> times listed under U, under V
	for v, r := range s.adj {
		if s.owner(v) != s.id {
			return fmt.Errorf("adjacency files records under vertex %d, which machine %d owns", v, s.owner(v))
		}
		if r == nil {
			return fmt.Errorf("adjacency keeps a drained entry for vertex %d", v)
		}
		for n := 0; r != nil; r = *r.linkAt(v) {
			if n++; n > len(s.tree) {
				return fmt.Errorf("adjacency: the tree list of vertex %d does not end", v)
			}
			if s.tree[graph.Edge{U: r.pos.U, V: r.pos.V}] != r || (int(v) != r.pos.U && int(v) != r.pos.V) {
				return fmt.Errorf("adjacency lists a stale or foreign tree record %d-%d under vertex %d", r.pos.U, r.pos.V, v)
			}
			c := listed[r]
			c[b2i(int(v) != r.pos.U)]++
			listed[r] = c
		}
	}
	for e, r := range s.tree {
		for i, x := range [2]int{e.U, e.V} {
			owned, unfiled := s.owner(int32(x)) == s.id, r.next[i] == r
			if listed[r][i] != b2i(owned) || unfiled == owned {
				return fmt.Errorf("adjacency lists tree record %v %d times under vertex %d (owned here: %v, marked unfiled: %v)",
					e, listed[r][i], x, owned, unfiled)
			}
		}
	}
	err := auditRings(s, "tree", s.treeRing, s.tree, func(r *treeRec) graph.Edge { return graph.Edge{U: r.pos.U, V: r.pos.V} })
	if err != nil {
		return err
	}
	return auditRings(s, "non-tree", s.ntRing, s.nontree, func(r *ntRec) graph.Edge { return graph.Edge{U: int(r.u), V: int(r.v)} })
}

// auditRings checks one kind of ring: every stored record on exactly one,
// the ring of its home vertex's label — U's, unless U is owned elsewhere —
// every ring closed, and no head kept for a label without records.
func auditRings[T any, P ringed[T]](s *shard, kind string, rings map[int64]*T, stored map[graph.Edge]*T, edge func(P) graph.Edge) error {
	on := map[*T]int{}
	for label, head := range rings {
		if head == nil {
			return fmt.Errorf("%s rings keep a head for label %d, which files no record", kind, label)
		}
		for r, n := head, 0; ; n++ {
			l, e := P(r).at(), edge(r)
			if n == len(stored) || l.next == nil || P(l.next).at().prev != r {
				return fmt.Errorf("the %s ring of label %d does not close", kind, label)
			}
			home := int32(e.U)
			if s.owner(home) != s.id {
				home = int32(e.V)
			}
			if stored[e] != r || s.verts[home] != label {
				return fmt.Errorf("the ring of label %d lists a stale or foreign %s record %v (home vertex %d)", label, kind, e, home)
			}
			if on[r]++; l.next == head {
				break
			}
			r = l.next
		}
	}
	for e, r := range stored {
		if on[r] != 1 {
			return fmt.Errorf("%s record %v is on %d rings", kind, e, on[r])
		}
	}
	return nil
}
