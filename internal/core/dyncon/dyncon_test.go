package dyncon

import (
	"math/rand"
	"testing"

	"dmpc/internal/graph"
	"dmpc/internal/seqdyn"
)

// checkPartition compares the distributed component labels with the
// oracle's partition.
func checkPartition(t *testing.T, d *D, g *graph.Graph, tag string) {
	t.Helper()
	comp := graph.Components(g)
	mine := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		mine[v] = int(d.CompOf(v))
	}
	if !graph.SameLabeling(comp, mine) {
		t.Fatalf("%s: partition mismatch", tag)
	}
}

func TestCCBasicLinkCut(t *testing.T) {
	d := New(Config{N: 6, Mode: CC})
	g := graph.New(6)

	apply := func(up graph.Update) {
		applyUpdate(d, up)
		g.Apply(up)
		if err := d.Validate(); err != nil {
			t.Fatalf("after %v: %v", up, err)
		}
		checkPartition(t, d, g, up.String())
	}

	apply(graph.Update{Op: graph.Insert, U: 0, V: 1, W: 1})
	apply(graph.Update{Op: graph.Insert, U: 1, V: 2, W: 1})
	apply(graph.Update{Op: graph.Insert, U: 3, V: 4, W: 1})
	apply(graph.Update{Op: graph.Insert, U: 2, V: 3, W: 1})
	apply(graph.Update{Op: graph.Insert, U: 0, V: 4, W: 1}) // cycle -> non-tree
	apply(graph.Update{Op: graph.Delete, U: 2, V: 3})       // tree edge, replaced by (0,4)
	apply(graph.Update{Op: graph.Delete, U: 0, V: 1})
	apply(graph.Update{Op: graph.Insert, U: 5, V: 0, W: 1})
	apply(graph.Update{Op: graph.Delete, U: 1, V: 2})
}

func TestCCRandomStreamAgainstOracle(t *testing.T) {
	const n = 24
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := New(Config{N: n, Mode: CC})
		g := graph.New(n)
		for step, up := range graph.RandomStream(n, 250, 0.55, 1, rng) {
			if up.Op == graph.Insert {
				ins(d, up.U, up.V, 1)
			} else {
				del(d, up.U, up.V)
			}
			g.Apply(up)
			if err := d.Validate(); err != nil {
				t.Fatalf("seed %d step %d (%v): %v", seed, step, up, err)
			}
			checkPartition(t, d, g, up.String())
		}
	}
}

func TestCCTreeChurn(t *testing.T) {
	const n = 30
	rng := rand.New(rand.NewSource(2))
	initial, churn := graph.TreeChurn(n, 25, 40, 1, rng)
	d := New(Config{N: n, Mode: CC})
	g := graph.New(n)
	for _, up := range append(initial, churn...) {
		applyUpdate(d, up)
		g.Apply(up)
		if err := d.Validate(); err != nil {
			t.Fatalf("after %v: %v", up, err)
		}
		checkPartition(t, d, g, up.String())
	}
}

func TestCCConnectedQueries(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(7))
	d := New(Config{N: n, Mode: CC})
	g := graph.New(n)
	for _, up := range graph.RandomStream(n, 120, 0.6, 1, rng) {
		if up.Op == graph.Insert {
			ins(d, up.U, up.V, 1)
		} else {
			del(d, up.U, up.V)
		}
		g.Apply(up)
	}
	comp := graph.Components(g)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v += 3 {
			if connected(d, u, v) != (comp[u] == comp[v]) {
				t.Fatalf("Connected(%d,%d) wrong", u, v)
			}
		}
	}
}

func TestCCDuplicateAndNoopUpdates(t *testing.T) {
	d := New(Config{N: 4, Mode: CC})
	g := graph.New(4)
	ins(d, 0, 1, 1)
	g.Insert(0, 1, 1)
	ins(d, 0, 1, 1) // duplicate
	ins(d, 1, 0, 1) // duplicate reversed
	ins(d, 2, 2, 1) // self loop
	del(d, 0, 3)    // unknown
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	checkPartition(t, d, g, "noops")
	del(d, 0, 1)
	g.Delete(0, 1)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	checkPartition(t, d, g, "delete")
}

func TestCCRoundsPerUpdateConstant(t *testing.T) {
	// The §5 guarantee: O(1) rounds per update in the worst case. The
	// protocol constant is ~10; assert a hard ceiling and, critically,
	// that it does not grow with n.
	worst := map[int]int{}
	for _, n := range []int{16, 64, 256} {
		rng := rand.New(rand.NewSource(11))
		d := New(Config{N: n, Mode: CC})
		for _, up := range graph.RandomStream(n, 300, 0.55, 1, rng) {
			var st = ins(d, up.U, up.V, 1)
			if up.Op == graph.Delete {
				st = del(d, up.U, up.V)
			}
			if st.Rounds > worst[n] {
				worst[n] = st.Rounds
			}
		}
		if worst[n] > 14 {
			t.Fatalf("n=%d: worst rounds %d exceeds protocol constant", n, worst[n])
		}
	}
	if worst[256] > worst[16]+2 {
		t.Fatalf("rounds grow with n: %v", worst)
	}
}

func TestMSTExactMatchesOracle(t *testing.T) {
	const n = 20
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed + 40))
		d := New(Config{N: n, Mode: MST, Eps: 0})
		g := graph.New(n)
		oracle := seqdyn.NewDynMSF(n)
		for step, up := range graph.RandomStream(n, 220, 0.6, 40, rng) {
			if up.Op == graph.Insert {
				ins(d, up.U, up.V, up.W)
				oracle.Insert(up.U, up.V, up.W)
			} else {
				del(d, up.U, up.V)
				oracle.Delete(up.U, up.V)
			}
			g.Apply(up)
			if err := d.Validate(); err != nil {
				t.Fatalf("seed %d step %d (%v): %v", seed, step, up, err)
			}
			if got, want := d.ForestWeight(), graph.MSFWeight(g); got != want {
				t.Fatalf("seed %d step %d (%v): forest weight %d, Kruskal %d",
					seed, step, up, got, want)
			}
			checkPartition(t, d, g, up.String())
		}
	}
}

func TestMSTSwapOnCycleInsert(t *testing.T) {
	d := New(Config{N: 4, Mode: MST})
	g := graph.New(4)
	ins := func(u, v int, w graph.Weight) {
		ins(d, u, v, w)
		g.Insert(u, v, w)
	}
	ins(0, 1, 10)
	ins(1, 2, 20)
	ins(2, 3, 30)
	// Closing edge lighter than the heaviest cycle edge: must swap.
	ins(0, 3, 5)
	if got, want := d.ForestWeight(), graph.MSFWeight(g); got != want {
		t.Fatalf("weight %d want %d", got, want)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// The evicted edge (2,3) must survive as a non-tree record.
	found := false
	for _, e := range d.NonTreeEdges() {
		if e.U == 2 && e.V == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("evicted edge not kept as non-tree")
	}
	// Deleting a light tree edge must promote the best replacement.
	del(d, 1, 2)
	g.Delete(1, 2)
	if got, want := d.ForestWeight(), graph.MSFWeight(g); got != want {
		t.Fatalf("after delete: weight %d want %d", got, want)
	}
}

func TestMSTEpsilonBucketing(t *testing.T) {
	const n = 18
	eps := 0.25
	rng := rand.New(rand.NewSource(3))
	d := New(Config{N: n, Mode: MST, Eps: eps})
	g := graph.New(n)        // true weights
	bucketed := graph.New(n) // bucketed weights
	for _, up := range graph.RandomStream(n, 160, 0.65, 500, rng) {
		if up.Op == graph.Insert {
			ins(d, up.U, up.V, up.W)
			g.Insert(up.U, up.V, up.W)
			bucketed.Insert(up.U, up.V, graph.BucketWeight(up.W, eps))
		} else {
			del(d, up.U, up.V)
			g.Delete(up.U, up.V)
			bucketed.Delete(up.U, up.V)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("after %v: %v", up, err)
		}
		// The maintained forest is an exact MSF of the bucketed weights...
		if got, want := d.ForestWeight(), graph.MSFWeight(bucketed); got != want {
			t.Fatalf("bucketed weight %d want %d", got, want)
		}
		// ...which puts the true optimum within (1+eps) plus integer slack.
		opt := float64(graph.MSFWeight(g))
		lower := float64(d.ForestWeight())
		if lower > opt {
			t.Fatalf("bucketed MSF %v exceeds true optimum %v", lower, opt)
		}
		if opt > lower*(1+eps)+float64(n)*(1+eps) {
			t.Fatalf("approximation violated: opt %v, bucketed %v", opt, lower)
		}
	}
}

func TestEntropyCoordinatorPattern(t *testing.T) {
	// §8: the broadcast-style CC algorithm spreads communication; its
	// entropy should exceed a pure star pattern's. Sanity check only.
	const n = 32
	rng := rand.New(rand.NewSource(5))
	d := New(Config{N: n, Mode: CC})
	for _, up := range graph.RandomStream(n, 150, 0.6, 1, rng) {
		if up.Op == graph.Insert {
			ins(d, up.U, up.V, 1)
		} else {
			del(d, up.U, up.V)
		}
	}
	if d.Cluster().CommEntropy() < 2 {
		t.Fatalf("entropy %.2f suspiciously low for a broadcast protocol", d.Cluster().CommEntropy())
	}
}

// TestCCSoakLargerScale runs a long mixed stream at a larger size,
// validating the full distributed state periodically — a tripwire for
// rare interaction bugs between cuts, links and anchor maintenance.
func TestCCSoakLargerScale(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewSource(314))
	d := New(Config{N: n, Mode: CC, ExpectedEdges: 400})
	g := graph.New(n)
	for step, up := range graph.RandomStream(n, 900, 0.52, 1, rng) {
		if up.Op == graph.Insert {
			ins(d, up.U, up.V, 1)
		} else {
			del(d, up.U, up.V)
		}
		g.Apply(up)
		if step%10 == 0 || step > 870 {
			if err := d.Validate(); err != nil {
				t.Fatalf("step %d (%v): %v", step, up, err)
			}
			checkPartition(t, d, g, up.String())
		}
	}
	if d.Cluster().Stats().Violations != 0 {
		t.Fatalf("%d model violations", d.Cluster().Stats().Violations)
	}
}
