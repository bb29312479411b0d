package staticmpc

import (
	"math/rand"
	"testing"

	"dmpc/internal/graph"
)

func TestMinSpanningForestMatchesKruskal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5; i++ {
		g := graph.GNM(40, 100, 50, rng)
		forest, res := MinSpanningForest(g, 8)
		var w graph.Weight
		var plain []graph.Edge
		for _, e := range forest {
			w += e.W
			plain = append(plain, graph.Edge{U: e.U, V: e.V})
		}
		if w != graph.MSFWeight(g) {
			t.Fatalf("case %d: weight %d, Kruskal %d", i, w, graph.MSFWeight(g))
		}
		if !graph.IsSpanningForest(g, plain) {
			t.Fatalf("case %d: not a spanning forest", i)
		}
		if res.Rounds <= 0 || res.Rounds > 40 {
			t.Fatalf("case %d: rounds = %d", i, res.Rounds)
		}
	}
}

// TestSpanningForestUnweighted runs the filtering forest on a grid whose
// edges all weigh the same, so every filter step breaks ties alone.
func TestSpanningForestUnweighted(t *testing.T) {
	g := graph.Grid(5, 8, 1, nil)
	forest, _ := MinSpanningForest(g, 6)
	plain := make([]graph.Edge, len(forest))
	for i, e := range forest {
		plain[i] = graph.Edge{U: e.U, V: e.V}
	}
	if !graph.IsSpanningForest(g, plain) {
		t.Fatal("not a spanning forest")
	}
}
