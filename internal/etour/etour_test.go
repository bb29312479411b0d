package etour

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Vertex ids for the paper's figures: a..g = 0..6.
const (
	vA = iota
	vB
	vC
	vD
	vE
	vF
	vG
)

var figNames = []string{"a", "b", "c", "d", "e", "f", "g"}

func figure1Forest() *Forest {
	fo := NewForest(7)
	fo.BuildFromTree(map[int][]int{vB: {vC, vE}, vC: {vB, vD}, vD: {vC}, vE: {vB}}, vB)
	fo.BuildFromTree(map[int][]int{vA: {vF}, vF: {vA, vG}, vG: {vF}}, vA)
	return fo
}

func toNames(seq *Seq) string { return seq.Render(figNames) }

func TestFigure1InitialTours(t *testing.T) {
	fo := figure1Forest()
	if err := fo.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := toNames(fo.TourOf(vB)); got != "[b,c,c,d,d,c,c,b,b,e,e,b]" {
		t.Fatalf("tour 1 = %s", got)
	}
	if got := toNames(fo.TourOf(vA)); got != "[a,f,f,g,g,f,f,a]" {
		t.Fatalf("tour 2 = %s", got)
	}
	// Figure 1(i) brackets.
	checks := map[int][2]int{vB: {1, 12}, vC: {2, 7}, vD: {4, 5}, vE: {10, 11},
		vA: {1, 8}, vF: {2, 7}, vG: {4, 5}}
	for v, fl := range checks {
		if fo.F(v) != fl[0] || fo.L(v) != fl[1] {
			t.Fatalf("%s: f/l = %d/%d, want %d/%d", figNames[v], fo.F(v), fo.L(v), fl[0], fl[1])
		}
	}
}

func TestFigure1Reroot(t *testing.T) {
	fo := figure1Forest()
	fo.Reroot(vE)
	if err := fo.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := toNames(fo.TourOf(vB)); got != "[e,b,b,c,c,d,d,c,c,b,b,e]" {
		t.Fatalf("rerooted tour = %s", got)
	}
	// Figure 1(ii) brackets.
	checks := map[int][2]int{vE: {1, 12}, vB: {2, 11}, vC: {4, 9}, vD: {6, 7}}
	for v, fl := range checks {
		if fo.F(v) != fl[0] || fo.L(v) != fl[1] {
			t.Fatalf("%s: f/l = %d/%d, want %d/%d", figNames[v], fo.F(v), fo.L(v), fl[0], fl[1])
		}
	}
}

func TestFigure1Insert(t *testing.T) {
	fo := figure1Forest()
	fo.Link(vG, vE) // insert edge (e,g); g's tree hosts
	if err := fo.Validate(); err != nil {
		t.Fatal(err)
	}
	want := "[a,f,f,g,g,e,e,b,b,c,c,d,d,c,c,b,b,e,e,g,g,f,f,a]"
	if got := toNames(fo.TourOf(vA)); got != want {
		t.Fatalf("merged tour =\n %s, want\n %s", got, want)
	}
	// Figure 1(iii) brackets.
	checks := map[int][2]int{vA: {1, 24}, vF: {2, 23}, vG: {4, 21}, vE: {6, 19},
		vB: {8, 17}, vC: {10, 15}, vD: {12, 13}}
	for v, fl := range checks {
		if fo.F(v) != fl[0] || fo.L(v) != fl[1] {
			t.Fatalf("%s: f/l = %d/%d, want %d/%d", figNames[v], fo.F(v), fo.L(v), fl[0], fl[1])
		}
	}
	if !fo.SameTree(vA, vD) || fo.CompSize(vA) != 7 {
		t.Fatal("components not merged")
	}
}

func figure2Forest() *Forest {
	fo := NewForest(7)
	fo.BuildFromTree(map[int][]int{
		vA: {vB, vF}, vB: {vA, vC, vE}, vC: {vB, vD}, vD: {vC}, vE: {vB},
		vF: {vA, vG}, vG: {vF},
	}, vA)
	return fo
}

func TestFigure2InitialTour(t *testing.T) {
	fo := figure2Forest()
	if err := fo.Validate(); err != nil {
		t.Fatal(err)
	}
	want := "[a,b,b,c,c,d,d,c,c,b,b,e,e,b,b,a,a,f,f,g,g,f,f,a]"
	if got := toNames(fo.TourOf(vA)); got != want {
		t.Fatalf("tour = %s, want %s", got, want)
	}
	checks := map[int][2]int{vA: {1, 24}, vB: {2, 15}, vC: {4, 9}, vD: {6, 7},
		vE: {12, 13}, vF: {18, 23}, vG: {20, 21}}
	for v, fl := range checks {
		if fo.F(v) != fl[0] || fo.L(v) != fl[1] {
			t.Fatalf("%s: f/l = %d/%d, want %d/%d", figNames[v], fo.F(v), fo.L(v), fl[0], fl[1])
		}
	}
}

func TestFigure2Delete(t *testing.T) {
	fo := figure2Forest()
	fo.Cut(vA, vB)
	if err := fo.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := toNames(fo.TourOf(vB)); got != "[b,c,c,d,d,c,c,b,b,e,e,b]" {
		t.Fatalf("subtree tour = %s", got)
	}
	if got := toNames(fo.TourOf(vA)); got != "[a,f,f,g,g,f,f,a]" {
		t.Fatalf("rest tour = %s", got)
	}
	if fo.SameTree(vA, vB) {
		t.Fatal("components not split")
	}
	if fo.CompSize(vA) != 3 || fo.CompSize(vB) != 4 {
		t.Fatalf("sizes = %d, %d", fo.CompSize(vA), fo.CompSize(vB))
	}
}

// TestSeqOpsMatchFigures drives the independent Seq implementation through
// the same figure scenarios.
func TestSeqOpsMatchFigures(t *testing.T) {
	t1 := BuildSeq(map[int][]int{vB: {vC, vE}, vC: {vB, vD}, vD: {vC}, vE: {vB}}, vB)
	t2 := BuildSeq(map[int][]int{vA: {vF}, vF: {vA, vG}, vG: {vF}}, vA)
	if err := t1.Valid(); err != nil {
		t.Fatal(err)
	}
	t1.Reroot(vE)
	if got := t1.Render(figNames); got != "[e,b,b,c,c,d,d,c,c,b,b,e]" {
		t.Fatalf("seq reroot = %s", got)
	}
	merged := LinkSeq(t2, vG, t1, vE)
	want := "[a,f,f,g,g,e,e,b,b,c,c,d,d,c,c,b,b,e,e,g,g,f,f,a]"
	if got := merged.Render(figNames); got != want {
		t.Fatalf("seq link = %s, want %s", got, want)
	}
	if err := merged.Valid(); err != nil {
		t.Fatal(err)
	}
	rest, sub := CutSeq(merged, vG, vE)
	if err := rest.Valid(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Valid(); err != nil {
		t.Fatal(err)
	}
	if rest.Render(figNames) != "[a,f,f,g,g,f,f,a]" {
		t.Fatalf("seq cut rest = %s", rest.Render(figNames))
	}
	if sub.Render(figNames) != "[e,b,b,c,c,d,d,c,c,b,b,e]" {
		t.Fatalf("seq cut sub = %s", sub.Render(figNames))
	}
}

func TestSeqBrackets(t *testing.T) {
	t2 := BuildSeq(map[int][]int{vA: {vF}, vF: {vA, vG}, vG: {vF}}, vA)
	got := t2.Brackets([]int{vA, vF, vG}, figNames)
	if got != "a[1,8] f[2,7] g[4,5]" {
		t.Fatalf("brackets = %q", got)
	}
}

func TestRerootShiftIsBijection(t *testing.T) {
	f := func(sizeRaw, lyRaw uint8) bool {
		size := int(sizeRaw)%20 + 2
		L := 4 * (size - 1)
		ly := int(lyRaw)%L + 1
		s := Shift{Kind: ShiftReroot, A: L, B: ly}
		seen := make(map[int]bool, L)
		for i := 1; i <= L; i++ {
			j := s.Apply(i)
			if j < 1 || j > L || seen[j] {
				return false
			}
			seen[j] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShiftKindStrings(t *testing.T) {
	kinds := []ShiftKind{ShiftReroot, ShiftLinkGuest, ShiftLinkHost, ShiftCutSub, ShiftCutRest}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "?" || seen[s] {
			t.Fatalf("bad or duplicate name %q", s)
		}
		seen[s] = true
	}
}

// dsu is a minimal union-find used as ground truth for the partitions.
type dsu struct{ p []int }

func newDSU(n int) *dsu {
	d := &dsu{p: make([]int, n)}
	for i := range d.p {
		d.p[i] = i
	}
	return d
}
func (d *dsu) find(x int) int {
	for d.p[x] != x {
		d.p[x] = d.p[d.p[x]]
		x = d.p[x]
	}
	return x
}
func (d *dsu) union(a, b int) { d.p[d.find(a)] = d.find(b) }

// TestRandomLinkCutAgainstOracle performs long random link/cut sequences,
// validating full forest invariants and the partition after every step.
func TestRandomLinkCutAgainstOracle(t *testing.T) {
	const n = 24
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fo := NewForest(n)
		type edge struct{ u, v int }
		var treeEdges []edge

		for step := 0; step < 300; step++ {
			if len(treeEdges) == 0 || (rng.Intn(2) == 0 && len(treeEdges) < n-1) {
				// Try to link two random vertices in different trees.
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v || fo.SameTree(u, v) {
					continue
				}
				shifts := fo.Link(u, v)
				if len(shifts) == 0 || len(shifts) > 3 {
					t.Fatalf("link emitted %d shifts", len(shifts))
				}
				treeEdges = append(treeEdges, edge{u, v})
			} else {
				i := rng.Intn(len(treeEdges))
				e := treeEdges[i]
				treeEdges[i] = treeEdges[len(treeEdges)-1]
				treeEdges = treeEdges[:len(treeEdges)-1]
				shifts, newComp := fo.Cut(e.u, e.v)
				if len(shifts) != 3 {
					t.Fatalf("cut emitted %d shifts", len(shifts))
				}
				if fo.Comp(e.u) != newComp && fo.Comp(e.v) != newComp {
					t.Fatal("cut: neither endpoint in new component")
				}
			}
			if err := fo.Validate(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			// Partition ground truth.
			d := newDSU(n)
			for _, e := range treeEdges {
				d.union(e.u, e.v)
			}
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if (d.find(u) == d.find(v)) != fo.SameTree(u, v) {
						t.Fatalf("seed %d step %d: partition mismatch at (%d,%d)", seed, step, u, v)
					}
				}
			}
		}
	}
}

// TestAncestorAndPathEdge checks IsAncestor and PathEdgeTest against a
// brute-force parent-pointer computation on random trees.
func TestAncestorAndPathEdge(t *testing.T) {
	const n = 16
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		fo := NewForest(n)
		parent := make([]int, n)
		parent[0] = -1
		for v := 1; v < n; v++ {
			parent[v] = rng.Intn(v)
			fo.Link(parent[v], v)
		}
		// Brute-force ancestry from parent pointers... but Link rebuilds
		// arbitrary roots, so derive ancestry from the forest's own tour
		// and check consistency with path connectivity instead: u is an
		// ancestor of v iff u lies on the tree path from the root to v.
		tour := fo.TourOf(0)
		root := tour.Root()
		// Build adjacency and compute paths by BFS.
		adj := make([][]int, n)
		for v := 0; v < n; v++ {
			adj[v] = fo.TreeNeighbors(v)
		}
		par := make([]int, n)
		for i := range par {
			par[i] = -2
		}
		par[root] = -1
		queue := []int{root}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if par[w] == -2 {
					par[w] = v
					queue = append(queue, w)
				}
			}
		}
		isAnc := func(u, v int) bool {
			for v != -1 {
				if v == u {
					return true
				}
				v = par[v]
			}
			return false
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if fo.IsAncestor(u, v) != isAnc(u, v) {
					t.Fatalf("seed %d: IsAncestor(%d,%d) mismatch", seed, u, v)
				}
			}
		}
		// PathEdgeTest: edge (w,par[w]) is on path(x,y) iff it separates
		// x from y, i.e. exactly one of x,y is in w's subtree.
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				for w := 0; w < n; w++ {
					if par[w] < 0 {
						continue
					}
					want := isAnc(w, x) != isAnc(w, y)
					if got := fo.PathEdgeTest(w, par[w], x, y); got != want {
						t.Fatalf("seed %d: PathEdgeTest(%d-%d, %d, %d) = %v want %v",
							seed, w, par[w], x, y, got, want)
					}
				}
			}
		}
	}
}

func TestLinkPanicsOnSameTree(t *testing.T) {
	fo := NewForest(3)
	fo.Link(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fo.Link(1, 0)
}

func TestCutPanicsOnNonEdge(t *testing.T) {
	fo := NewForest(3)
	fo.Link(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fo.Cut(0, 2)
}

func TestTwoVertexTree(t *testing.T) {
	fo := NewForest(2)
	fo.Link(0, 1)
	if got := fo.TourOf(0).Slice(); !reflect.DeepEqual(got, []int{0, 1, 1, 0}) {
		t.Fatalf("tour = %v", got)
	}
	if fo.F(0) != 1 || fo.L(0) != 4 || fo.F(1) != 2 || fo.L(1) != 3 {
		t.Fatal("f/l wrong for 2-vertex tree")
	}
	fo.Cut(0, 1)
	if fo.SameTree(0, 1) {
		t.Fatal("still same tree after cut")
	}
	if fo.F(0) != 0 || fo.L(1) != 0 {
		t.Fatal("singletons should have f=l=0")
	}
	if err := fo.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInSubtreeSingleton(t *testing.T) {
	if !InSubtree(0, 0, 0, 0) {
		t.Fatal("singleton inside itself")
	}
	if InSubtree(2, 3, 0, 0) {
		t.Fatal("non-singleton not inside a singleton")
	}
	if !InSubtree(4, 9, 2, 15) {
		t.Fatal("nested interval")
	}
	if InSubtree(2, 15, 4, 9) {
		t.Fatal("containing interval is not contained")
	}
}

// TestBuildSeqRandomTreesValid: canonical tours of random trees are valid
// and every vertex appears exactly 2·deg times.
func TestBuildSeqRandomTreesValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		adj := map[int][]int{}
		for v := 1; v < n; v++ {
			p := rng.Intn(v)
			adj[p] = append(adj[p], v)
			adj[v] = append(adj[v], p)
		}
		seq := BuildSeq(adj, 0)
		if seq.Valid() != nil || seq.Len() != 4*(n-1) {
			return false
		}
		counts := map[int]int{}
		for _, v := range seq.Slice() {
			counts[v]++
		}
		for v := 0; v < n; v++ {
			if counts[v] != 2*len(adj[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestForestBuildMatchesSeq: BuildFromTree must agree with BuildSeq on
// every position assignment, for random trees.
func TestForestBuildMatchesSeq(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		adj := map[int][]int{}
		for v := 1; v < n; v++ {
			p := rng.Intn(v)
			adj[p] = append(adj[p], v)
			adj[v] = append(adj[v], p)
		}
		fo := NewForest(n)
		fo.BuildFromTree(adj, 0)
		if fo.Validate() != nil {
			return false
		}
		want := BuildSeq(adj, 0).Slice()
		got := fo.TourOf(0).Slice()
		if len(want) != len(got) {
			return false
		}
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCutRepairMapsToSameVertex: the repair shift must send the removed
// arc positions to surviving appearances of the same vertices — the
// property anchors rely on.
func TestCutRepairMapsToSameVertex(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed + 500))
		n := 4 + int(seed)
		fo := NewForest(n)
		type e struct{ u, v int }
		var edges []e
		for v := 1; v < n; v++ {
			p := rng.Intn(v)
			fo.Link(p, v)
			edges = append(edges, e{p, v})
		}
		pre := fo.TourOf(0).Slice() // full tour before the cut
		x := edges[rng.Intn(len(edges))]
		shifts, _ := fo.Cut(x.u, x.v)
		repair := shifts[0]
		if repair.Kind != ShiftCutRepair {
			t.Fatalf("first shift is %v", repair.Kind)
		}
		fy, ly := repair.A, repair.B
		for _, pos := range []int{fy - 1, fy, ly, ly + 1} {
			vert := pre[pos-1]
			np := repair.Apply(pos)
			if np == 0 {
				continue // singleton: vertex has no surviving appearance
			}
			if pre[np-1] != vert {
				t.Fatalf("seed %d: repair sent position %d (vertex %d) to %d (vertex %d)",
					seed, pos, vert, np, pre[np-1])
			}
		}
	}
}

// FuzzApplyEdge checks the one-switch kernel against its definition: for
// every kind, ApplyEdge leaves an edge's four positions where four Apply
// calls would and reports Moves of UV[0] as it was. The parameters are a, b,
// c in each kind's order (q and Ly, fy and ly and L, L and ly); each
// position is picked by one byte of pick from 0, the parameters and their
// neighbours — q, q+1, fy±1, ly±1, L — or raw.
func FuzzApplyEdge(f *testing.F) {
	f.Add(4, 9, 20, uint32(0x03020100), 7)
	f.Fuzz(func(t *testing.T, a, b, c int, pick uint32, raw int) {
		picks := [...]int{0, a, a + 1, a - 1, a + 2, b, b + 1, b - 1, b + 2, c, c - 1, c + 1, raw}
		var e EdgePos
		for i, p := range [4]*int{&e.UV[0], &e.UV[1], &e.VU[0], &e.VU[1]} {
			*p = picks[int(pick>>(8*i)&0xff)%len(picks)]
		}
		for k := ShiftReroot; k <= ShiftCutRepair; k++ {
			s := Shift{Kind: k, A: a, B: b, C: c}
			got, want := e, e
			moved := s.ApplyEdge(&got)
			want.UV[0], want.UV[1] = s.Apply(e.UV[0]), s.Apply(e.UV[1])
			want.VU[0], want.VU[1] = s.Apply(e.VU[0]), s.Apply(e.VU[1])
			if got != want || moved != s.Moves(e.UV[0]) {
				t.Fatalf("%v %+v on %+v: ApplyEdge gives %+v, moved %v; Apply gives %+v, Moves %v",
					k, s, e, got, moved, want, s.Moves(e.UV[0]))
			}
		}
	})
}

// LinkSeq splices guest (which must be rooted at y, or be a singleton) into
// host at host-vertex x, returning the merged tour. hostX identifies x; for
// a singleton host the caller passes the singleton's vertex id.
func LinkSeq(host *Seq, x int, guest *Seq, y int) *Seq {
	// Splice point q: an even-aligned appearance of x.
	q := 0
	if host.Len() > 0 {
		if host.Root() == x {
			q = host.Len()
		} else {
			q = host.First(x) // even for non-root vertices
		}
	}
	merged := make([]int, 0, host.Len()+guest.Len()+4)
	merged = append(merged, host.s[:q]...)
	merged = append(merged, x, y) // arc x -> y
	merged = append(merged, guest.s...)
	merged = append(merged, y, x) // arc y -> x
	merged = append(merged, host.s[q:]...)
	return &Seq{s: merged}
}

// CutSeq removes tree edge (x,y) where one endpoint is the parent of the
// other, returning the remaining tour (containing the parent) and the
// subtree tour (rooted at the child). It panics if the edge's arcs are not
// found where the conventions place them.
func CutSeq(t *Seq, x, y int) (rest, sub *Seq) {
	fx, lx := t.First(x), t.Last(x)
	fy, ly := t.First(y), t.Last(y)
	if InSubtree(fx, lx, fy, ly) {
		// y is the parent.
		x, y = y, x
		fy, ly = fx, lx
	}
	if t.s[fy-2] != x || t.s[ly] != x {
		panic(fmt.Sprintf("etour: arcs of (%d,%d) not adjacent to subtree interval", x, y))
	}
	subSeq := append([]int(nil), t.s[fy:ly-1]...) // positions fy+1 .. ly-1
	restSeq := make([]int, 0, len(t.s)-len(subSeq)-4)
	restSeq = append(restSeq, t.s[:fy-2]...) // positions 1 .. fy-2
	restSeq = append(restSeq, t.s[ly+1:]...) // positions ly+2 .. L
	return &Seq{s: restSeq}, &Seq{s: subSeq}
}
