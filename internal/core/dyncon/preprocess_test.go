package dyncon

import (
	"math/rand"
	"testing"

	"dmpc/internal/graph"
	"dmpc/internal/treedp"
)

func TestPreprocessArbitraryGraphThenUpdates(t *testing.T) {
	const n = 28
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed + 60))
		g := graph.GNM(n, 50, 1, rng)
		d := New(Config{N: n, Mode: CC, ExpectedEdges: 200})
		res := d.Preprocess(g)
		if res.Rounds <= 0 {
			t.Fatal("preprocessing should cost rounds")
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("seed %d after preprocess: %v", seed, err)
		}
		checkPartition(t, d, g, "preprocess")
		// Dynamic updates on top of the preprocessed state.
		for step, up := range graph.RandomStream(n, 150, 0.5, 1, rng) {
			// The stream generator starts from an empty graph; skip
			// updates that collide with the preprocessed edges.
			if up.Op == graph.Insert && g.Has(up.U, up.V) {
				continue
			}
			if up.Op == graph.Delete && !g.Has(up.U, up.V) {
				continue
			}
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

func TestPreprocessDeleteForestEdges(t *testing.T) {
	// Deleting preprocessed tree edges must trigger replacement searches
	// over the preprocessed non-tree records.
	const n = 20
	rng := rand.New(rand.NewSource(77))
	g := graph.GNM(n, 40, 1, rng)
	d := New(Config{N: n, Mode: CC, ExpectedEdges: 200})
	d.Preprocess(g)
	for _, e := range d.ForestEdges() {
		del(d, e.U, e.V)
		g.Delete(e.U, e.V)
		if err := d.Validate(); err != nil {
			t.Fatalf("after deleting (%d,%d): %v", e.U, e.V, err)
		}
		checkPartition(t, d, g, "forest-delete")
	}
}

func TestPreprocessMSTExact(t *testing.T) {
	const n = 22
	rng := rand.New(rand.NewSource(5))
	g := graph.GNM(n, 60, 40, rng)
	d := New(Config{N: n, Mode: MST, Eps: 0, ExpectedEdges: 240})
	d.Preprocess(g)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := d.ForestWeight(), graph.MSFWeight(g); got != want {
		t.Fatalf("preprocessed MSF weight %d, Kruskal %d", got, want)
	}
	// Updates keep it exact.
	for step, up := range graph.RandomStream(n, 120, 0.5, 40, rng) {
		if up.Op == graph.Insert && g.Has(up.U, up.V) {
			continue
		}
		if up.Op == graph.Delete && !g.Has(up.U, up.V) {
			continue
		}
		applyUpdate(d, up)
		g.Apply(up)
		if got, want := d.ForestWeight(), graph.MSFWeight(g); got != want {
			t.Fatalf("step %d (%v): weight %d want %d", step, up, got, want)
		}
	}
}

func TestPreprocessMSTBucketedApprox(t *testing.T) {
	const n = 24
	eps := 0.3
	rng := rand.New(rand.NewSource(9))
	g := graph.GNM(n, 70, 500, rng)
	d := New(Config{N: n, Mode: MST, Eps: eps, ExpectedEdges: 280})
	d.Preprocess(g)
	opt := float64(graph.MSFWeight(g))
	lower := float64(d.ForestWeight())
	if lower > opt {
		t.Fatalf("bucketed weight %v above optimum %v", lower, opt)
	}
	if opt > lower*(1+eps)+float64(n)*(1+eps) {
		t.Fatalf("preprocessing approximation violated: opt %v, bucketed %v", opt, lower)
	}
}

// TestPreprocessReanchorsWeightRecords: Preprocess replaces the forest but
// keeps the weights, and used to leave their anchors and labels pointing
// into the forest it had just replaced (Validate: "weight record for 1:
// component 0, verts says 1").
func TestPreprocessReanchorsWeightRecords(t *testing.T) {
	const n = 16
	d := New(Config{N: n})
	oracle := treedp.NewOracle(n)
	d.ApplyOps([]graph.Op{graph.OpIns(0, 1, 1), graph.OpIns(1, 2, 1), graph.OpSetW(2, 7), graph.OpSetW(1, 5)})
	oracle.SetWeight(2, 7)
	oracle.SetWeight(1, 5)
	g := graph.New(n)
	for _, e := range [][2]int{{5, 2}, {2, 9}, {9, 1}} {
		g.Insert(e[0], e[1], 1)
	}
	d.Preprocess(g)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	res, _ := d.ApplyOps([]graph.Op{graph.OpQSubtreeSum(5, 9), graph.OpQPathSum(5, 1), graph.OpQPathSum(2, 0), graph.OpQSubtreeSum(1, 2)})
	adj := forestAdj(d, n)
	for i, want := range []int64{oracle.SubtreeSum(adj, 5, 9), oracle.PathSum(adj, 5, 1), oracle.PathSum(adj, 2, 0), oracle.SubtreeSum(adj, 1, 2)} {
		if res[i].Int != want {
			t.Fatalf("query %d after Preprocess answered %d, oracle says %d", i, res[i].Int, want)
		}
	}
	// The re-anchored records repair under later links and cuts like any other.
	d.ApplyOps([]graph.Op{graph.OpDel(2, 9), graph.OpIns(1, 7, 1)})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}
