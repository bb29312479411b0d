package dyncon

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dmpc/internal/etour"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/treedp"
)

// The tests below pin the O(touched) local work of the §5 machines: a
// handler that names a component reaches records through compVerts → adj,
// the adjacency is audited by Validate, and each audit is shown to trip.

const (
	touchedMu  = 7
	compA      = int64(7) // the named host: vertices 1 8 7 15 22 21, tour length 20
	compB      = int64(8) // the named guest: vertices 29 36 42, tour length 8
	fillerBase = int64(100000)
)

// touchedShard is machine 1 of 7 holding two small named components and
// 2 500 one-vertex filler components of four records each, plus decoys: a
// tree, a non-tree and a weight record per label in decoy, present in the
// by-edge maps but filed under no vertex of that label. A scan would rewrite
// them; the walk cannot reach them.
func touchedShard(decoy [2]int64) (s *shard, isDecoy map[any]bool) {
	s = newShard(1, touchedMu, Config{N: 1 << 20})
	own := func(v int32, comp int64) {
		s.verts[v] = comp
		s.compVerts[comp] = append(s.compVerts[comp], v)
	}
	tree := func(comp int64, u, v int, uv, vu [2]int) {
		s.addTree(graph.Edge{U: u, V: v}, &treeRec{pos: etour.EdgePos{U: u, V: v, UV: uv, VU: vu}, comp: comp, w: 1})
	}
	nt := func(comp int64, u, v, au, av int) {
		s.addNonTree(graph.Edge{U: u, V: v}, &ntRec{aU: au, aV: av, cU: comp, cV: comp, w: 1})
	}
	// A, rooted at 1: 1-8, 8-7, 7-15, 1-22, 22-21. Machine 1 owns 1, 8, 15
	// and 22, so 1-8, 1-22 and the non-tree 1-15 have both endpoints here.
	for _, v := range []int32{1, 8, 15, 22} {
		own(v, compA)
	}
	tree(compA, 1, 8, [2]int{1, 2}, [2]int{11, 12})
	tree(compA, 7, 8, [2]int{9, 10}, [2]int{3, 4})
	tree(compA, 7, 15, [2]int{5, 6}, [2]int{7, 8})
	tree(compA, 1, 22, [2]int{13, 14}, [2]int{19, 20})
	tree(compA, 21, 22, [2]int{17, 18}, [2]int{15, 16})
	nt(compA, 1, 15, 20, 6)
	nt(compA, 15, 21, 6, 16)
	s.weights[8] = &treedp.Rec{Anchor: 2, Comp: compA, W: 10}
	s.weights[15] = &treedp.Rec{Anchor: 7, Comp: compA, W: 20}
	s.weights[22] = &treedp.Rec{Anchor: 14, Comp: compA, W: 30}
	// B, rooted at 29: 29-36, 36-42 (29 and 36 owned).
	own(29, compB)
	own(36, compB)
	tree(compB, 29, 36, [2]int{1, 2}, [2]int{7, 8})
	tree(compB, 36, 42, [2]int{3, 4}, [2]int{5, 6})
	nt(compB, 29, 42, 1, 4)
	s.weights[36] = &treedp.Rec{Anchor: 2, Comp: compB, W: 5}
	// Filler: 2 500 components, 10 000 records.
	for i := 0; i < 2500; i++ {
		v, comp := 1+touchedMu*(i+10), fillerBase+int64(i)
		own(int32(v), comp)
		tree(comp, v, v+1, [2]int{1, 2}, [2]int{7, 8})
		tree(comp, v, v+2, [2]int{3, 4}, [2]int{5, 6})
		nt(comp, v, v+3, 1, 4)
		s.weights[int32(v)] = &treedp.Rec{Anchor: 3, Comp: comp, W: int64(i)}
	}
	isDecoy = map[any]bool{}
	for i, comp := range decoy {
		e := graph.Edge{U: 70 + i, V: 77 + i}
		t := &treeRec{pos: etour.EdgePos{U: e.U, V: e.V, UV: [2]int{17, 18}, VU: [2]int{19, 20}}, comp: comp, w: 1}
		n := &ntRec{u: int32(e.U), v: int32(e.V), aU: 5, aV: 18, cU: comp, cV: comp, w: 1}
		w := &treedp.Rec{Anchor: 18, Comp: comp, W: 1}
		v := int32(1 + touchedMu*(5000+i)) // owned, carrying another label
		own(v, 999)
		s.tree[e], s.nontree[e], s.weights[v] = t, n, w
		isDecoy[t], isDecoy[n], isDecoy[w] = true, true, true
	}
	return s, isDecoy
}

// refChainRec is applyChainRec as it was before the shared-trajectory kernel:
// four independent chains, the record relabelled by the first.
func refChainRec(shifts []etour.Shift, r treeRec) treeRec {
	var c int64
	r.pos.UV[0], c = applyChain(shifts, r.pos.UV[0], r.comp)
	r.pos.UV[1], _ = applyChain(shifts, r.pos.UV[1], r.comp)
	r.pos.VU[0], _ = applyChain(shifts, r.pos.VU[0], r.comp)
	r.pos.VU[1], _ = applyChain(shifts, r.pos.VU[1], r.comp)
	r.comp = c
	return r
}

// expectBroadcast runs apply on a fresh touchedShard and requires every
// record still stored to read as the reference scan would leave it — which is
// unchanged for a record of an unnamed component, and shifted exactly once
// for a record reached from two owned endpoints — except the decoys, which
// the scan would rewrite and apply must not have reached.
func expectBroadcast(t *testing.T, name string, decoy [2]int64, shifts []etour.Shift, apply func(s *shard)) *shard {
	t.Helper()
	s, isDecoy := touchedShard(decoy)
	if n := len(s.tree) + len(s.nontree) + len(s.weights); n < 10000 {
		t.Fatalf("shard holds %d records, want at least 10 000", n)
	}
	wantTree, wantNT, wantW := map[*treeRec]treeRec{}, map[*ntRec]ntRec{}, map[*treedp.Rec]treedp.Rec{}
	for _, r := range s.tree {
		wantTree[r] = refChainRec(shifts, *r)
		if isDecoy[r] {
			if wantTree[r].pos == r.pos {
				t.Fatalf("%s: a scan would leave decoy %+v alone", name, r.pos)
			}
			wantTree[r] = *r
		}
	}
	for _, r := range s.nontree {
		ref := *r
		ref.aU, ref.cU = applyChain(shifts, r.aU, r.cU)
		ref.aV, ref.cV = applyChain(shifts, r.aV, r.cV)
		if isDecoy[r] {
			if ref == *r {
				t.Fatalf("%s: a scan would leave decoy %d-%d alone", name, r.u, r.v)
			}
			ref = *r
		}
		wantNT[r] = ref
	}
	for _, r := range s.weights {
		ref := *r
		ref.ApplyShifts(shifts)
		if isDecoy[r] {
			if ref == *r {
				t.Fatalf("%s: a scan would leave decoy weight %+v alone", name, *r)
			}
			ref = *r
		}
		wantW[r] = ref
	}
	apply(s)
	for _, r := range s.tree {
		if want := wantTree[r]; r.pos != want.pos || r.comp != want.comp {
			t.Fatalf("%s: tree record (decoy: %v) reads %+v in %d, want %+v in %d", name, isDecoy[r], r.pos, r.comp, want.pos, want.comp)
		}
	}
	for _, r := range s.nontree {
		if want := wantNT[r]; r.aU != want.aU || r.aV != want.aV || r.cU != want.cU || r.cV != want.cV {
			t.Fatalf("%s: non-tree record %d-%d (decoy: %v) reads (%d,%d) in (%d,%d), want (%d,%d) in (%d,%d)", name, r.u, r.v, isDecoy[r],
				r.aU, r.aV, r.cU, r.cV, want.aU, want.aV, want.cU, want.cV)
		}
	}
	for v, r := range s.weights {
		if *r != wantW[r] {
			t.Fatalf("%s: weight record of %d (decoy: %v) reads %+v, want %+v", name, v, isDecoy[r], *r, wantW[r])
		}
	}
	return s
}

// TestBroadcastTouchesOnlyNamed: a link and a cut rewrite exactly the filed
// records of the components they name — the same-shard records 1-8, 1-22 and
// 1-15, reached from both their endpoints, exactly once — and one naming
// nothing the shard holds (what a registry that is no holder receives)
// visits nothing and allocates nothing. On a µ = 147 cluster a link of two
// singletons and a cut of two vertices reach only their holders and
// registries (testDeliveries).
func TestBroadcastTouchesOnlyNamed(t *testing.T) {
	// link(21, 42): x = 21 has f = 16 in A; y = 42 has f, l = 4, 5 in B.
	linkOf := func(a, b int64) *wire {
		return &wire{
			Kind: kDoLink, U: 21, V: 42, W: 1, Comp: a, Comp2: b, Q: 16, Ly: 8, Size: 9,
			Shifts: []etour.Shift{
				{Kind: etour.ShiftLinkHost, Comp: a, NewComp: a, A: 16, B: 8},
				{Kind: etour.ShiftReroot, Comp: b, NewComp: b, A: 8, B: 5},
				{Kind: etour.ShiftLinkGuest, Comp: b, NewComp: a, A: 16, B: 8},
			},
		}
	}
	// cut(7, 8) of a into a and b: the child 7 has [f, l] = [4, 9]; in A,
	// 7-15 goes with it and the non-tree records 1-15 and 15-21 now cross.
	cutOf := func(a, b int64) *wire {
		return &wire{
			Kind: kDoCut, Seq: 1, U: 7, V: 8, W: 1, Comp: a, Comp2: b,
			Fy: 4, LyCut: 9, TourLen: 20, SubSize: 2, RestSize: 4,
			Shifts: []etour.Shift{
				{Kind: etour.ShiftCutRepair, Comp: a, NewComp: b, A: 4, B: 9, C: 20},
				{Kind: etour.ShiftCutSub, Comp: a, NewComp: b, A: 4, B: 9},
				{Kind: etour.ShiftCutRest, Comp: a, NewComp: a, A: 4, B: 9},
			},
			Miss: &wire{Kind: kCandidate, Seq: 1},
		}
	}
	const compNew = int64(1<<20 + 2)
	named := [2]int64{compA, compB}

	link := linkOf(compA, compB)
	s := expectBroadcast(t, "link", named, link.Shifts, func(s *shard) { s.onDoLink(link) })
	for _, v := range []int32{1, 8, 15, 22, 29, 36} {
		if s.verts[v] != compA {
			t.Fatalf("link: vertex %d labelled %d", v, s.verts[v])
		}
	}
	if len(s.compVerts[compA]) != 6 || len(s.compVerts[compB]) != 0 {
		t.Fatalf("link: compVerts lists %d hosts, %d guests", len(s.compVerts[compA]), len(s.compVerts[compB]))
	}

	cut := cutOf(compA, compNew)
	var reply *wire
	s = expectBroadcast(t, "cut", [2]int64{compA, compA}, cut.Shifts, func(s *shard) { reply = s.onDoCut(new(mpc.Ctx), cut) })
	if s.tree[graph.Edge{U: 7, V: 8}] != nil || len(s.tree) != 5000+7+2-1 {
		t.Fatalf("cut: %d tree records left, 7-8 among them: %v", len(s.tree), s.tree[graph.Edge{U: 7, V: 8}] != nil)
	}
	if !reply.Found || reply.U != 1 || reply.V != 15 || reply.Kind != kCandidate || reply.Seq != 1 {
		t.Fatalf("cut: candidate reply %+v, want 1-15", reply)
	}
	if s.verts[15] != compNew || s.verts[1] != compA || s.verts[8] != compA || s.verts[22] != compA {
		t.Fatalf("cut: labels 1:%d 8:%d 15:%d 22:%d", s.verts[1], s.verts[8], s.verts[15], s.verts[22])
	}

	// Components the shard holds no vertex of, but decoys labelled with: a
	// registry of a named label that is no holder.
	for _, far := range []*wire{linkOf(555, 556), cutOf(555, 556)} {
		far.U, far.V = 70, 77 // endpoints owned by machine 0
		run := func(s *shard) {
			if far.Kind == kDoLink {
				s.onDoLink(far)
			} else if got := s.onDoCut(new(mpc.Ctx), far); got != far.Miss {
				t.Fatalf("absent cut replied %+v, want the shared miss", got)
			}
		}
		s = expectBroadcast(t, "absent", [2]int64{555, far.Shifts[1].Comp}, far.Shifts, run)
		if got := testing.AllocsPerRun(100, func() { run(s) }); got != 0 {
			t.Fatalf("kind %d on a shard holding nothing of it allocates %.0f times", far.Kind, got)
		}
	}

	// A cut that finds no candidate on a shard that does hold the component
	// (B has no crossing record, and these shifts move nothing twice).
	miss := cutOf(compB, compNew)
	miss.U, miss.V, miss.Fy, miss.LyCut, miss.TourLen = 43, 50, 100, 101, 200
	for i := range miss.Shifts {
		miss.Shifts[i].A, miss.Shifts[i].B, miss.Shifts[i].C = 100, 101, 200
	}
	s, _ = touchedShard(named)
	ctx := new(mpc.Ctx)
	if got := s.onDoCut(ctx, miss); got != miss.Miss {
		t.Fatalf("candidate-free cut replied %+v", got)
	}
	if got := testing.AllocsPerRun(100, func() { s.onDoCut(ctx, miss) }); got != 0 {
		t.Fatalf("onDoCut without a candidate allocates %.0f times", got)
	}

	testDeliveries(t)
}

// counted is a shard that counts the messages of each kind it receives.
type counted struct {
	*shard
	got map[kind]int
}

func (c *counted) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	for _, m := range inbox {
		c.got[m.Payload.(*wire).Kind]++
	}
	c.shard.HandleRound(ctx, inbox)
}

// testDeliveries counts, on a µ = 147 cluster, the machines a link and a cut
// reach: a link of two singletons and a cut of the two-vertex component it
// made each reach at most 4 machines — the holders and the two registries —
// the cut gathers at most 4 replies, a piece cut from a listed component is
// listed too, and a machine holding none of them receives nothing and keeps
// its records as they were.
func testDeliveries(t *testing.T) {
	const mu = 147
	d := New(Config{N: 4 * mu, ExpectedEdges: 8 * mu, Machines: mu})
	machines := make([]*counted, mu)
	for i, sh := range d.shards {
		machines[i] = &counted{shard: sh, got: map[kind]int{}}
		d.cluster.SetMachine(i, machines[i])
	}
	// A bystander: machine 50 holds the component {50, 50+µ}.
	applyBatch(d, graph.Batch{{Op: graph.Insert, U: 50, V: 50 + mu, W: 1}})
	bystander := shardState(d.shards[50])
	// reached returns the machines that received kind k since its last
	// call, and how many copies they received.
	reached := func(k kind) (at []int, copies int) {
		for i, m := range machines {
			if n := m.got[k]; n > 0 {
				at, copies = append(at, i), copies+n
				m.got[k] = 0
			}
		}
		return at, copies
	}
	// link(3, 9 + µ): two singletons, owned by machines 3 and 9.
	applyBatch(d, graph.Batch{{Op: graph.Insert, U: 3, V: 9 + mu, W: 1}})
	if at, _ := reached(kDoLink); len(at) > 4 || len(at) < 2 {
		t.Fatalf("a link of two singletons reached machines %v, want 2..4", at)
	}
	// cut(3, 9 + µ): a two-vertex component, split with no replacement.
	applyBatch(d, graph.Batch{{Op: graph.Delete, U: 3, V: 9 + mu}})
	if at, _ := reached(kDoCut); len(at) > 4 || len(at) < 2 {
		t.Fatalf("a cut of a two-vertex component reached machines %v, want 2..4", at)
	}
	if _, replies := reached(kCandidate); replies > 4 || replies < 2 {
		t.Fatalf("a cut of a two-vertex component gathered %d replies, want 2..4", replies)
	}
	// A path 3 - 9+µ - 20+2µ on machines 3, 9 and 20, cut at 3: the subtree
	// {9+µ, 20+2µ} gets its list from the joins, so cutting it again reaches
	// only machines 9 and 20 and its registries.
	applyBatch(d, graph.Batch{{Op: graph.Insert, U: 3, V: 9 + mu, W: 1}, {Op: graph.Insert, U: 9 + mu, V: 20 + 2*mu, W: 1}})
	applyBatch(d, graph.Batch{{Op: graph.Delete, U: 3, V: 9 + mu}})
	reached(kDoLink)
	reached(kDoCut)
	applyBatch(d, graph.Batch{{Op: graph.Delete, U: 9 + mu, V: 20 + 2*mu}})
	if at, _ := reached(kDoCut); len(at) > 4 || len(at) < 2 {
		t.Fatalf("a cut of a two-vertex piece of a cut reached machines %v, want 2..4", at)
	}
	if got := machines[50].got; got[kDoLink]+got[kDoCut] != 0 {
		t.Fatalf("the bystander received %d links and %d cuts", got[kDoLink], got[kDoCut])
	}
	if shardState(d.shards[50]) != bystander {
		t.Fatal("a link and a cut of components the bystander does not hold changed its records")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// shardState renders everything a link or cut can change on a shard apart
// from its registry: labels, the label index and every record's content.
func shardState(s *shard) string {
	tree, nt, weights := map[graph.Edge]treeRec{}, map[graph.Edge]ntRec{}, map[int32]treedp.Rec{}
	for e, r := range s.tree {
		c := *r
		c.next = [2]*treeRec{}
		tree[e] = c
	}
	for e, r := range s.nontree {
		c := *r
		c.next = [2]*ntRec{}
		nt[e] = c
	}
	for v, r := range s.weights {
		weights[v] = *r
	}
	return fmt.Sprint(s.verts, s.compVerts, tree, nt, weights, len(s.adj))
}

// crossingScript is a cut whose two sides are joined by two non-tree edges
// with their far endpoints on other machines, one side a cut-off singleton:
// vertex 0 hangs off the path 1-2-3 by a tree edge and by two non-tree
// edges, so deleting 0-1 leaves anchor-0 records crossing the fresh cut
// until the relink names both sides. In MST mode the heavy tree edge 0-1 is
// instead evicted by a lighter cycle edge (swap cut with Convert, relink).
func crossingScript(mode Mode) []graph.Op {
	if mode == MST {
		return []graph.Op{
			graph.OpIns(0, 1, 9), graph.OpIns(1, 2, 1), graph.OpIns(2, 3, 1),
			graph.OpIns(0, 2, 9), graph.OpIns(0, 3, 9), // heavier than the path: non-tree
			graph.OpIns(0, 3, 9), // duplicate
			graph.OpDel(0, 1),    // cut off singleton 0: replaced through 0-2 or 0-3
			graph.OpIns(0, 1, 2), // lighter than the 9 on its cycle: swap cut, Convert, relink
			graph.OpDel(0, 1), graph.OpDel(0, 2), graph.OpDel(0, 3),
		}
	}
	return []graph.Op{
		graph.OpIns(0, 1, 1), graph.OpIns(1, 2, 1), graph.OpIns(2, 3, 1),
		graph.OpIns(0, 2, 1), graph.OpIns(0, 3, 1),
		graph.OpDel(0, 1), // replacement + promote
		graph.OpDel(0, 2), graph.OpDel(0, 3), graph.OpIns(0, 3, 1), graph.OpDel(2, 3),
	}
}

// TestCrossingRecordsAreReached is the crossing-record invariant by name: a
// record crossing a fresh cut — the one kind whose named anchor's endpoint
// may carry the other label — is rewritten by the cut and by its relink on
// every machine holding a copy, in CC (replacement + promote) and in MST
// (swap cut with Convert, then relink), at every worker count.
func TestCrossingRecordsAreReached(t *testing.T) {
	for _, mode := range []Mode{CC, MST} {
		cfg := Config{N: 16, Mode: mode, ExpectedEdges: 64}
		inline, reps := New(cfg), replicas(cfg)
		if o := inline.owner; o(0) == o(1) || o(0) == o(2) || o(0) == o(3) {
			t.Fatalf("mode %v: vertex 0 shares a machine with a neighbour (µ = %d)", mode, len(inline.shards))
		}
		all := append([]*D{inline}, reps...)
		for _, d := range all {
			defer d.Close()
			d.AuditClaims(t.Fatalf)
		}
		g := graph.New(cfg.N)
		for i, op := range crossingScript(mode) {
			for _, d := range all {
				d.ApplyOps([]graph.Op{op})
				if err := d.Validate(); err != nil {
					t.Fatalf("mode %v op %d (%v): %v", mode, i, op, err)
				}
			}
			if up := op.Update(); up.Op == graph.Delete || !g.Has(up.U, up.V) {
				g.Apply(up)
			}
			checkPartition(t, inline, g, fmt.Sprint(mode, " ", op))
			if mode == MST && inline.ForestWeight() != graph.MSFWeight(g) {
				t.Fatalf("op %d (%v): forest weight %d, Kruskal %d", i, op, inline.ForestWeight(), graph.MSFWeight(g))
			}
		}
		for _, par := range reps {
			assertReplicaEquivalent(t, inline, par)
		}
	}
}

// TestEveryAuditTrips corrupts each derived index and the registry entries
// once and requires Validate to name the corruption.
func TestEveryAuditTrips(t *testing.T) {
	// Machine 0 owns 0 and µ, and holds the tree records 0-1, 0-µ, the
	// non-tree record 0-2 and nothing filed under anything else. It is the
	// registry of their component 0, held by machines 0, 1 and 2 (of 16, so
	// the registry keeps the list).
	build := func() (*D, *shard) {
		d := New(Config{N: 64, ExpectedEdges: 64, Machines: 16})
		mu := len(d.shards)
		d.ApplyOps([]graph.Op{graph.OpIns(0, 1, 1), graph.OpIns(1, 2, 1), graph.OpIns(0, 2, 1), graph.OpIns(0, mu, 1)})
		return d, d.shards[0]
	}
	cases := []struct {
		want    string
		corrupt func(s *shard)
	}{
		{"listed twice in compVerts", func(s *shard) { s.compVerts[s.verts[0]] = append(s.compVerts[s.verts[0]], 0) }},
		{"compVerts files vertex", func(s *shard) {
			c := s.verts[0]
			s.compVerts[c+1000], s.compVerts[c] = s.compVerts[c], nil
		}},
		{"compVerts indexes", func(s *shard) { delete(s.compVerts, s.verts[0]) }},
		{"which machine 1 owns", func(s *shard) { s.adj[1] = s.adj[0] }},
		{"drained entry", func(s *shard) { s.adj[int32(2*s.mu)] = filed{} }},
		{"stale or foreign tree record", func(s *shard) { // the edge's record is another one now
			c := *s.tree[graph.Edge{U: 0, V: 1}]
			s.tree[graph.Edge{U: 0, V: 1}] = &c
		}},
		{"stale or foreign non-tree record", func(s *shard) {
			c := *s.nontree[graph.Edge{U: 0, V: 2}]
			s.nontree[graph.Edge{U: 0, V: 2}] = &c
		}},
		{"stale or foreign tree record", func(s *shard) { // filed under a vertex it is not incident to
			h := s.adj[int32(s.mu)]
			h.tree = s.tree[graph.Edge{U: 0, V: 1}]
			s.adj[int32(s.mu)] = h
		}},
		{"tree record {0 1} 0 times under vertex 0", func(s *shard) { // unfiled, still stored
			r := s.tree[graph.Edge{U: 0, V: 1}]
			s.removeTree(graph.Edge{U: 0, V: 1})
			s.tree[graph.Edge{U: 0, V: 1}] = r
		}},
		{"does not end", func(s *shard) { // a cycle
			r := s.adj[0].tree
			for r.next[0] != nil {
				r = r.next[0]
			}
			r.next[0] = s.adj[0].tree
		}},
		// The registry entries links and cuts are addressed from: a stale
		// size for a label no vertex carries, a live singleton's size filed
		// off its registry (vertex 3 is untouched, registry 3), a holder set
		// filed there too, a holder list missing machine 2 or naming machine
		// 5, which holds nothing of component 0, a singleton (vertex 32,
		// registry 0) with a set, and holder ids MemWords does not bill.
		{"which no vertex carries", func(s *shard) { s.sizes[int64(1000*s.mu)] = 1 }},
		{"component 3 filed here, its registry is machine 3", func(s *shard) { s.sizes[3] = 1 }},
		{"holder set for component 3 filed here, its registry is machine 3", func(s *shard) { s.setHolders(3, holderSet{ids: []int32{3}}) }},
		{"holder list [0 1], holders [0 1 2]", func(s *shard) { s.setHolders(0, holderSet{ids: []int32{0, 1}}) }},
		{"holder list [0 1 2 5], holders [0 1 2]", func(s *shard) { s.setHolders(0, holderSet{ids: []int32{0, 1, 2, 5}}) }},
		{"holder set for component 32 of 1 vertices", func(s *shard) { s.setHolders(32, holderSet{all: true}) }},
		{"MemWords bills 4 holder ids, its holder lists store 3", func(s *shard) { s.holderWords++ }},
		{"marked unfiled: true", func(s *shard) { // the both-here record claims its V lives elsewhere
			r := s.removeTree(graph.Edge{U: 0, V: s.mu})
			s.tree[graph.Edge{U: 0, V: s.mu}] = r
			h := s.adj[0]
			r.next[0], r.next[1], h.tree = h.tree, r, r
			s.adj[0] = h
		}},
	}
	for _, tc := range cases {
		d, s := build()
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: clean instance fails: %v", tc.want, err)
		}
		tc.corrupt(s)
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("corrupted %q: Validate returned %v", tc.want, err)
		}
	}
}

// BenchmarkDynconTouched reports the per-op time of ApplyOps (k = 64) on a
// sparse uniform stream at two sizes with the machine count pinned: n/4
// random edges are loaded first (subcritical, so component sizes do not grow
// with n while the records a shard holds grow 5×), then 1 000 inserts, 1 000
// deletes of loaded edges and 2 000 reads are timed. §5's local work must
// follow what an op touches, not what the shards hold.
func BenchmarkDynconTouched(b *testing.B) {
	const k, span = 64, 2000
	for _, n := range []int{20000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			load := graph.RandomStream(n, n/4, 1, 1, rng)
			ups := make([]graph.Update, span)
			for i, j := range rng.Perm(len(load))[:span/2] {
				ups[2*i] = graph.Update{Op: graph.Insert, U: rng.Intn(n), V: rng.Intn(n), W: 1}
				ups[2*i+1] = graph.Update{Op: graph.Delete, U: load[j].U, V: load[j].V}
			}
			ops := graph.MixedStream(ups, 0.5, func(r *rand.Rand) graph.Op { return graph.OpQConnected(r.Intn(n), r.Intn(n)) }, rng)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := New(Config{N: n, ExpectedEdges: 6 * n, Machines: 147})
				for _, chunk := range graph.Chunk(load, 1024) {
					applyBatch(d, chunk)
				}
				b.StartTimer()
				for _, chunk := range graph.SplitOps(ops, k) {
					d.ApplyOps(chunk)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/applied-op")
		})
	}
}

// BenchmarkLinkCut times the two updates most of a sparse stream is made of,
// on a µ = 147 cluster: a link of two singletons and the cut of the
// two-vertex component it made, alternating, one ApplyOps each, so ns/op and
// allocs/op are per update.
func BenchmarkLinkCut(b *testing.B) {
	const mu = 147
	d := New(Config{N: 4 * mu, ExpectedEdges: 8 * mu, Machines: mu})
	ops := [2][]graph.Op{{graph.OpIns(3, 9+mu, 1)}, {graph.OpDel(3, 9+mu)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.ApplyOps(ops[i%2])
	}
}
