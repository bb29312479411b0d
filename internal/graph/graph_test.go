package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInsertDeleteBasics(t *testing.T) {
	g := New(5)
	if !g.Insert(0, 1, 7) {
		t.Fatal("insert failed")
	}
	if g.Insert(1, 0, 7) {
		t.Fatal("duplicate insert should fail")
	}
	if g.Insert(2, 2, 1) {
		t.Fatal("self-loop insert should fail")
	}
	if g.Insert(-1, 2, 1) || g.Insert(0, 5, 1) {
		t.Fatal("out-of-range insert should fail")
	}
	if !g.Has(1, 0) {
		t.Fatal("edge should be symmetric")
	}
	if w, ok := g.WeightOf(0, 1); !ok || w != 7 {
		t.Fatalf("weight = %d,%v", w, ok)
	}
	if g.M() != 1 {
		t.Fatalf("m = %d", g.M())
	}
	if !g.Delete(1, 0) {
		t.Fatal("delete failed")
	}
	if g.Delete(0, 1) {
		t.Fatal("double delete should fail")
	}
	if g.M() != 0 {
		t.Fatalf("m = %d after delete", g.M())
	}
}

func TestCloneIndependent(t *testing.T) {
	g := Path(4)
	c := g.Clone()
	c.Delete(0, 1)
	if !g.Has(0, 1) {
		t.Fatal("clone mutation leaked into original")
	}
	if c.M() != g.M()-1 {
		t.Fatal("clone edge count wrong")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(6)
	for v := 5; v >= 1; v-- {
		g.Insert(0, v, 1)
	}
	nbrs := g.Neighbors(0)
	if len(nbrs) != 5 {
		t.Fatalf("center degree = %d", len(nbrs))
	}
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Fatal("neighbors not sorted")
		}
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := GNM(30, 60, 10, rng)
	edges := g.Edges()
	if len(edges) != g.M() {
		t.Fatalf("edges %d != m %d", len(edges), g.M())
	}
	for i, e := range edges {
		if e.U >= e.V {
			t.Fatal("edge not normalized")
		}
		if i > 0 {
			p := edges[i-1]
			if p.U > e.U || (p.U == e.U && p.V >= e.V) {
				t.Fatal("edges not sorted")
			}
		}
		if !g.Has(e.U, e.V) {
			t.Fatal("listed edge missing")
		}
	}
}

func TestGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	if g := Path(10); g.M() != 9 || NumComponents(g) != 1 {
		t.Fatal("path wrong")
	}
	if g := Grid(4, 5, 1, nil); g.M() != 4*4+3*5 || NumComponents(g) != 1 {
		t.Fatal("grid wrong")
	}
	if g := RandomTree(50, 5, rng); g.M() != 49 || NumComponents(g) != 1 {
		t.Fatal("tree wrong")
	}
}

func TestRandomStreamReplayConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	updates := RandomStream(20, 300, 0.6, 10, rng)
	if len(updates) != 300 {
		t.Fatalf("stream length %d", len(updates))
	}
	// Replaying must never produce a duplicate insert or phantom delete.
	g := New(20)
	for _, u := range updates {
		if !g.Apply(u) {
			t.Fatalf("update %v was a no-op on replay", u)
		}
	}
}

// TestSlidingWindowBoundsEdges pins the fill-then-churn shape (dmpcbench's
// n-ladder is the second case): the first window updates insert, ending at
// exactly window edges, and the rest are delete+insert pairs, each delete
// naming a present edge and each pair ending where it began.
func TestSlidingWindowBoundsEdges(t *testing.T) {
	for _, tc := range []struct{ n, window, length int }{{30, 25, 400}, {256, 512, 1024}} {
		updates := SlidingWindow(tc.n, tc.window, tc.length, 50, rand.New(rand.NewSource(9)))
		if len(updates) != tc.length {
			t.Fatalf("n=%d: %d updates, want %d", tc.n, len(updates), tc.length)
		}
		g := New(tc.n)
		for i, u := range updates {
			churn := i - tc.window
			if want := (churn < 0 || churn%2 == 1); (u.Op == Insert) != want {
				t.Fatalf("n=%d: update %d is %v, want an insert: %v", tc.n, i, u, want)
			}
			if !g.Apply(u) {
				t.Fatalf("n=%d: update %d (%v) was a no-op", tc.n, i, u)
			}
			if churn >= -1 && churn%2 != 0 && g.M() != tc.window {
				t.Fatalf("n=%d: after update %d the graph holds %d edges, want %d", tc.n, i, g.M(), tc.window)
			}
		}
	}
}

// TestSlidingWindowDegenerate covers windows the vertices cannot hold and
// the empty window: each stream ends, stays well-formed and is no longer
// than asked for.
func TestSlidingWindowDegenerate(t *testing.T) {
	for _, tc := range []struct{ n, window, length int }{{2, 4, 10}, {1, 4, 10}, {5, 0, 7}, {3, 9, 12}} {
		updates := SlidingWindow(tc.n, tc.window, tc.length, 5, rand.New(rand.NewSource(4)))
		if len(updates) > tc.length {
			t.Fatalf("%+v: %d updates", tc, len(updates))
		}
		g := New(tc.n)
		for i, u := range updates {
			if !g.Apply(u) {
				t.Fatalf("%+v: update %d (%v) was a no-op", tc, i, u)
			}
		}
	}
}

func TestTreeChurnDeletesTreeEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	initial, churn := TreeChurn(40, 20, 50, 8, rng)
	g := FromUpdates(40, initial)
	if NumComponents(g) != 1 {
		t.Fatal("initial graph should be connected")
	}
	for _, u := range churn {
		if !g.Apply(u) {
			t.Fatalf("churn update %v was no-op", u)
		}
	}
	if NumComponents(g) != 1 {
		t.Fatal("graph should end connected")
	}
}

func TestComponentsAgainstUnionFind(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GNM(25, 30, 1, rng)
		comp := Components(g)
		uf := newUnionFind(g.N())
		for _, e := range g.Edges() {
			uf.union(e.U, e.V)
		}
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if (comp[u] == comp[v]) != (uf.find(u) == uf.find(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSameLabeling(t *testing.T) {
	if !SameLabeling([]int{0, 0, 2}, []int{5, 5, 9}) {
		t.Fatal("isomorphic labelings should match")
	}
	if SameLabeling([]int{0, 0, 2}, []int{5, 9, 9}) {
		t.Fatal("different partitions should not match")
	}
	if SameLabeling([]int{0}, []int{0, 1}) {
		t.Fatal("length mismatch should fail")
	}
}

func TestIsSpanningForest(t *testing.T) {
	g := Path(5)
	g.Insert(4, 0, 1)
	forest := []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	if !IsSpanningForest(g, forest) {
		t.Fatal("path should span the cycle")
	}
	cyclic := append(append([]Edge{}, forest...), Edge{0, 4})
	if IsSpanningForest(g, cyclic) {
		t.Fatal("cycle should be rejected")
	}
	if IsSpanningForest(g, forest[:3]) {
		t.Fatal("disconnected forest should be rejected")
	}
	if IsSpanningForest(g, []Edge{{0, 2}}) {
		t.Fatal("non-edge should be rejected")
	}
}

func TestMatchingCheckers(t *testing.T) {
	g := Path(6) // 0-1-2-3-4-5
	mate := []int{-1, 2, 1, 4, 3, -1}
	if !IsMatching(g, mate) {
		t.Fatal("valid matching rejected")
	}
	if IsMaximalMatching(g, mate) {
		// edge (0,1)? 1 is matched. (4,5)? 4 matched. (2,3)? both matched.
		// Actually all edges touch a matched vertex except... 0-1: 1 matched.
		t.Log("path matching {12,34} is maximal")
	}
	if CountFreeFreeEdges(g, mate) != 0 {
		t.Fatal("deficit should be 0")
	}
	// Augmenting path of length 3: 0 - (1,2) - ... 0 free, 5 free:
	// 0-1,1-2 matched? path 0,1,2,3 needs (1,2) matched and 0,3 free: 3 is
	// matched, so no. Path 5,4,3,2: (4,3) matched, 5 free, 2 matched. No.
	if HasLength3AugPath(g, mate) {
		t.Fatal("no length-3 augmenting path expected")
	}
	mate2 := []int{-1, -1, 3, 2, -1, -1}
	// 1 - (2,3) - 4 with 1 and 4 free: augmenting path of length 3.
	if !HasLength3AugPath(g, mate2) {
		t.Fatal("length-3 augmenting path should be found")
	}
}

func TestMaxMatchingSizeSmall(t *testing.T) {
	if got := MaxMatchingSize(Path(6)); got != 3 {
		t.Fatalf("path6 max matching = %d, want 3", got)
	}
	cycle := Path(5)
	cycle.Insert(4, 0, 1)
	if got := MaxMatchingSize(cycle); got != 2 {
		t.Fatalf("cycle5 max matching = %d, want 2", got)
	}
	star := New(8)
	for v := 1; v < 8; v++ {
		star.Insert(0, v, 1)
	}
	if got := MaxMatchingSize(star); got != 1 {
		t.Fatalf("star8 max matching = %d, want 1", got)
	}
	k35 := New(8)
	for u := 0; u < 3; u++ {
		for v := 3; v < 8; v++ {
			k35.Insert(u, v, 1)
		}
	}
	if got := MaxMatchingSize(k35); got != 3 {
		t.Fatalf("K35 max matching = %d, want 3", got)
	}
}

func TestMSF(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := Grid(5, 5, 100, rng)
	msf := MSFEdges(g)
	if len(msf) != g.N()-1 {
		t.Fatalf("msf has %d edges, want %d", len(msf), g.N()-1)
	}
	var plain []Edge
	for _, e := range msf {
		plain = append(plain, Edge{e.U, e.V})
	}
	if !IsSpanningForest(g, plain) {
		t.Fatal("msf is not a spanning forest")
	}
	// Cut property spot check: total weight must not exceed any other
	// spanning forest; compare against the unweighted spanning forest.
	var alt Weight
	for _, e := range plain {
		w, ok := g.WeightOf(e.U, e.V)
		if !ok {
			t.Fatalf("msf edge %v not in g", e)
		}
		alt += w
	}
	if alt != MSFWeight(g) {
		t.Fatal("forest weight mismatch")
	}
}

func TestBucketWeight(t *testing.T) {
	eps := 0.25
	for w := Weight(1); w < 1000; w++ {
		b := BucketWeight(w, eps)
		if b > w {
			t.Fatalf("bucket %d > weight %d", b, w)
		}
		if float64(w) >= float64(b)*(1+eps)+1+eps {
			t.Fatalf("bucket %d too far below %d", b, w)
		}
	}
	// Rounded MSF weight is within (1+eps) of exact (plus one unit of
	// integer-truncation slack per forest edge).
	rng := rand.New(rand.NewSource(5))
	g := GNM(40, 120, 1000, rng)
	exact := MSFWeight(g)
	rounded := g.Clone()
	for _, e := range g.Edges() {
		rounded.Delete(e.U, e.V)
		rounded.Insert(e.U, e.V, BucketWeight(e.W, eps))
	}
	rw := MSFWeight(rounded)
	if rw > exact {
		t.Fatalf("rounded MSF %d > exact %d", rw, exact)
	}
	slack := float64(g.N()) * (1 + eps)
	if float64(exact) > float64(rw)*(1+eps)+slack {
		t.Fatalf("exact %d not within (1+eps) of rounded %d", exact, rw)
	}
}

func TestFromUpdates(t *testing.T) {
	updates := []Update{
		{Op: Insert, U: 0, V: 1, W: 2},
		{Op: Insert, U: 1, V: 2, W: 3},
		{Op: Delete, U: 0, V: 1},
	}
	g := FromUpdates(3, updates)
	if g.M() != 1 || !g.Has(1, 2) {
		t.Fatal("replay wrong")
	}
}

func TestUpdateString(t *testing.T) {
	u := Update{Op: Insert, U: 1, V: 2, W: 3}
	d := Update{Op: Delete, U: 1, V: 2}
	if u.String() == "" || d.String() == "" {
		t.Fatal("String should be non-empty")
	}
}
