package dyncon

import (
	"math/rand"
	"testing"

	"dmpc/internal/graph"
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
