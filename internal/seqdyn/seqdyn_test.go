package seqdyn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dmpc/internal/graph"
)

// replayETT drives an ETT and a DSU-recomputed oracle through random
// link/cut operations.
func TestETTLinkCutRandom(t *testing.T) {
	const n = 30
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ett := NewETT(nil)
		type e struct{ u, v int }
		var edges []e
		for step := 0; step < 400; step++ {
			if len(edges) == 0 || rng.Intn(2) == 0 {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v || ett.Connected(u, v) {
					continue
				}
				ett.Link(u, v)
				edges = append(edges, e{u, v})
			} else {
				i := rng.Intn(len(edges))
				x := edges[i]
				edges[i] = edges[len(edges)-1]
				edges = edges[:len(edges)-1]
				ett.Cut(x.u, x.v)
			}
			// Oracle.
			g := graph.New(n)
			for _, x := range edges {
				g.Insert(x.u, x.v, 1)
			}
			comp := graph.Components(g)
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if (comp[u] == comp[v]) != ett.Connected(u, v) {
						t.Fatalf("seed %d step %d: connectivity mismatch (%d,%d)", seed, step, u, v)
					}
				}
			}
			// Tree sizes must match component sizes.
			sizes := map[int]int{}
			for v := 0; v < n; v++ {
				sizes[comp[v]]++
			}
			for v := 0; v < n; v++ {
				if ett.TreeSize(v) != sizes[comp[v]] {
					t.Fatalf("seed %d step %d: tree size of %d = %d, want %d",
						seed, step, v, ett.TreeSize(v), sizes[comp[v]])
				}
			}
		}
	}
}

func TestETTTourVertices(t *testing.T) {
	ett := NewETT(nil)
	ett.Link(0, 1)
	ett.Link(1, 2)
	ett.Link(2, 3)
	vs := ett.TourVertices(0)
	if len(vs) != 4 {
		t.Fatalf("tour vertices = %v", vs)
	}
	seen := map[int]bool{}
	for _, v := range vs {
		seen[v] = true
	}
	for v := 0; v < 4; v++ {
		if !seen[v] {
			t.Fatalf("vertex %d missing from tour", v)
		}
	}
}

func TestETTFlags(t *testing.T) {
	ett := NewETT(nil)
	ett.Link(0, 1)
	ett.Link(1, 2)
	if _, _, ok := ett.FindEdgeFlag(0); ok {
		t.Fatal("no flags set yet")
	}
	ett.SetEdgeFlag(0, 1, true)
	a, b, ok := ett.FindEdgeFlag(2)
	if !ok || a != 0 || b != 1 {
		t.Fatalf("found edge (%d,%d,%v)", a, b, ok)
	}
	ett.SetEdgeFlag(0, 1, false)
	if _, _, ok := ett.FindEdgeFlag(2); ok {
		t.Fatal("flag should be cleared")
	}
	ett.SetVertexFlag(2, true)
	v, ok := ett.FindVertexFlag(0)
	if !ok || v != 2 {
		t.Fatalf("found vertex %d,%v", v, ok)
	}
	// Flags survive links and cuts.
	ett.Link(2, 3)
	if v, ok := ett.FindVertexFlag(3); !ok || v != 2 {
		t.Fatalf("flag lost after link: %d,%v", v, ok)
	}
	ett.Cut(1, 2)
	if _, ok := ett.FindVertexFlag(0); ok {
		t.Fatal("flag should be in the other tree now")
	}
	if v, ok := ett.FindVertexFlag(3); !ok || v != 2 {
		t.Fatalf("flag missing in detached tree: %d,%v", v, ok)
	}
}

func TestETTCutPanicsOnNonEdge(t *testing.T) {
	ett := NewETT(nil)
	ett.Link(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ett.Cut(0, 2)
}

func TestHDTAgainstOracle(t *testing.T) {
	const n = 40
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := NewHDT(n)
		g := graph.New(n)
		updates := graph.RandomStream(n, 500, 0.55, 1, rng)
		for step, u := range updates {
			if u.Op == graph.Insert {
				h.Insert(u.U, u.V)
			} else {
				h.Delete(u.U, u.V)
			}
			g.Apply(u)
			if step%10 == 0 || step > 450 {
				comp := graph.Components(g)
				for a := 0; a < n; a += 3 {
					for b := a + 1; b < n; b += 2 {
						if (comp[a] == comp[b]) != h.Connected(a, b) {
							t.Fatalf("seed %d step %d: connectivity (%d,%d) mismatch", seed, step, a, b)
						}
					}
				}
				if h.Components() != graph.NumComponents(g) {
					t.Fatalf("seed %d step %d: components %d want %d",
						seed, step, h.Components(), graph.NumComponents(g))
				}
				if err := h.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
	}
}

func TestHDTTreeEdgeDeletionStress(t *testing.T) {
	// Build a path (every edge is a tree edge), add chords, then delete
	// path edges to force replacement searches.
	const n = 64
	h := NewHDT(n)
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		h.Insert(i, i+1)
		g.Insert(i, i+1, 1)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && g.Insert(u, v, 1) {
			h.Insert(u, v)
		}
	}
	for i := 0; i+1 < n; i += 2 {
		h.Delete(i, i+1)
		g.Delete(i, i+1)
		comp := graph.Components(g)
		for a := 0; a < n; a += 5 {
			for b := a + 1; b < n; b += 3 {
				if (comp[a] == comp[b]) != h.Connected(a, b) {
					t.Fatalf("after deleting (%d,%d): mismatch at (%d,%d)", i, i+1, a, b)
				}
			}
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHDTDuplicateAndUnknown(t *testing.T) {
	h := NewHDT(4)
	h.Insert(0, 1)
	h.Insert(0, 1) // duplicate
	h.Insert(2, 2) // self-loop
	h.Delete(1, 3) // unknown
	if !h.Connected(0, 1) || h.Connected(0, 2) {
		t.Fatal("connectivity wrong")
	}
	h.Delete(0, 1)
	if h.Connected(0, 1) {
		t.Fatal("edge should be gone")
	}
}

func TestLCTPathMax(t *testing.T) {
	// Path 0-1-2-3 with edge nodes valued 5, 9, 3.
	lct := NewLCT(4, nil)
	weights := []int64{5, 9, 3}
	ids := make([]int, 3)
	for i, w := range weights {
		id := lct.AddNode(w)
		ids[i] = id
		lct.Link(i, id)
		lct.Link(id, i+1)
	}
	node, val := lct.PathMax(0, 3)
	if val != 9 || node != ids[1] {
		t.Fatalf("path max = node %d val %d", node, val)
	}
	node, val = lct.PathMax(2, 3)
	if val != 3 || node != ids[2] {
		t.Fatalf("path max(2,3) = node %d val %d", node, val)
	}
	// Cut the middle edge; 0 and 3 disconnect.
	lct.Cut(1, ids[1])
	lct.Cut(ids[1], 2)
	if lct.Connected(0, 3) {
		t.Fatal("should be disconnected")
	}
	if !lct.Connected(0, 1) || !lct.Connected(2, 3) {
		t.Fatal("halves should remain connected")
	}
}

func TestLCTRandomAgainstBruteForce(t *testing.T) {
	const n = 20
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed + 77))
		lct := NewLCT(n, nil)
		g := graph.New(n)
		type rec struct {
			u, v int
			id   int
			w    int64
		}
		var edges []rec
		for step := 0; step < 250; step++ {
			if len(edges) == 0 || rng.Intn(3) > 0 {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v || lct.Connected(u, v) {
					continue
				}
				w := int64(rng.Intn(100))
				id := lct.AddNode(w)
				lct.Link(u, id)
				lct.Link(id, v)
				g.Insert(u, v, graph.Weight(w))
				edges = append(edges, rec{u, v, id, w})
			} else {
				i := rng.Intn(len(edges))
				e := edges[i]
				edges[i] = edges[len(edges)-1]
				edges = edges[:len(edges)-1]
				lct.Cut(e.u, e.id)
				lct.Cut(e.id, e.v)
				g.Delete(e.u, e.v)
			}
			// Check connectivity and path maxima against BFS.
			comp := graph.Components(g)
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					want := comp[a] == comp[b]
					if lct.Connected(a, b) != want {
						t.Fatalf("seed %d step %d: connectivity (%d,%d)", seed, step, a, b)
					}
					if want && a != b {
						_, got := lct.PathMax(a, b)
						if brute := brutePathMax(g, a, b); got != brute {
							t.Fatalf("seed %d step %d: pathmax(%d,%d) = %d want %d",
								seed, step, a, b, got, brute)
						}
					}
				}
			}
		}
	}
}

// brutePathMax finds the maximum edge weight on the unique tree path a..b.
func brutePathMax(g *graph.Graph, a, b int) int64 {
	type st struct {
		v   int
		max int64
	}
	prev := make(map[int]int)
	prev[a] = a
	stack := []st{{a, negInf}}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur.v == b {
			return cur.max
		}
		g.EachNeighbor(cur.v, func(w int, wt graph.Weight) bool {
			if _, ok := prev[w]; !ok {
				prev[w] = cur.v
				m := cur.max
				if int64(wt) > m {
					m = int64(wt)
				}
				stack = append(stack, st{w, m})
			}
			return true
		})
	}
	return negInf
}

func TestDynMSFAgainstKruskal(t *testing.T) {
	const n = 26
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed + 5))
		msf := NewDynMSF(n)
		g := graph.New(n)
		updates := graph.RandomStream(n, 350, 0.6, 50, rng)
		for step, u := range updates {
			if u.Op == graph.Insert {
				msf.Insert(u.U, u.V, u.W)
			} else {
				msf.Delete(u.U, u.V)
			}
			g.Apply(u)
			if msf.Weight() != graph.MSFWeight(g) {
				t.Fatalf("seed %d step %d (%v): MSF weight %d, Kruskal %d",
					seed, step, u, msf.Weight(), graph.MSFWeight(g))
			}
			if err := msf.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			var plain []graph.Edge
			for _, e := range msf.ForestEdges() {
				plain = append(plain, e)
			}
			if !graph.IsSpanningForest(g, plain) {
				t.Fatalf("seed %d step %d: not a spanning forest", seed, step)
			}
		}
	}
}

func TestNSMatchMaximality(t *testing.T) {
	const n = 30
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewNSMatch(n, 200)
		g := graph.New(n)
		updates := graph.RandomStream(n, 400, 0.6, 1, rng)
		for step, u := range updates {
			if u.Op == graph.Insert {
				m.Insert(u.U, u.V)
			} else {
				m.Delete(u.U, u.V)
			}
			g.Apply(u)
			mt := m.MateTable()
			if !graph.IsMatching(g, mt) {
				t.Fatalf("seed %d step %d: invalid matching", seed, step)
			}
			if !graph.IsMaximalMatching(g, mt) {
				t.Fatalf("seed %d step %d (%v): matching not maximal", seed, step, u)
			}
		}
	}
}

func TestNSMatchStarStress(t *testing.T) {
	// Hub with many leaves: hub is heavy; deleting its matched edge forces
	// the heavy rematch path repeatedly.
	const leaves = 50
	m := NewNSMatch(leaves+1, leaves+10)
	g := graph.New(leaves + 1)
	for i := 1; i <= leaves; i++ {
		m.Insert(0, i)
		g.Insert(0, i, 1)
	}
	for round := 0; round < 20; round++ {
		mate := m.Mate(0)
		if mate == -1 {
			t.Fatal("hub should be matched (it has free neighbors)")
		}
		m.Delete(0, mate)
		g.Delete(0, mate)
		if !graph.IsMaximalMatching(g, m.MateTable()) {
			t.Fatalf("round %d: not maximal", round)
		}
	}
}

func TestNSMatchApproximationFactor(t *testing.T) {
	// A maximal matching is a 2-approximation of maximum.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16
		m := NewNSMatch(n, 60)
		g := graph.New(n)
		for _, u := range graph.RandomStream(n, 120, 0.7, 1, rng) {
			if u.Op == graph.Insert {
				m.Insert(u.U, u.V)
			} else {
				m.Delete(u.U, u.V)
			}
			g.Apply(u)
		}
		size := graph.MatchingSize(m.MateTable())
		return 2*size >= graph.MaxMatchingSize(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterResetAndCount(t *testing.T) {
	var c Counter
	c.Inc(3)
	c.Inc(4)
	if c.Count() != 7 {
		t.Fatalf("count = %d", c.Count())
	}
	if c.Reset() != 7 || c.Count() != 0 {
		t.Fatal("reset wrong")
	}
}

func TestLCTLinkPanicsOnCycle(t *testing.T) {
	lct := NewLCT(3, nil)
	lct.Link(0, 1)
	lct.Link(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cycle-creating link")
		}
	}()
	lct.Link(2, 0)
}

func TestLCTCutPanicsOnNonAdjacent(t *testing.T) {
	lct := NewLCT(4, nil)
	lct.Link(0, 1)
	lct.Link(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-adjacent cut")
		}
	}()
	lct.Cut(0, 2)
}
