package dmm

import (
	"math/rand"
	"testing"

	"dmpc/internal/graph"
)

// drive32 applies a stream checking §4's invariants after every update:
// valid + maximal matching, no length-3 augmenting path (the 3/2
// certificate), exact free-neighbor counters, and storage invariants.
func drive32(t *testing.T, m *M, g *graph.Graph, updates []graph.Update, tag string) {
	t.Helper()
	for step, up := range updates {
		applyUpdate(m, up)
		g.Apply(up)
		mt := m.MateTable()
		if !graph.IsMatching(g, mt) {
			t.Fatalf("%s step %d (%v): invalid matching", tag, step, up)
		}
		if !graph.IsMaximalMatching(g, mt) {
			t.Fatalf("%s step %d (%v): matching not maximal", tag, step, up)
		}
		if graph.HasLength3AugPath(g, mt) {
			t.Fatalf("%s step %d (%v): length-3 augmenting path survived", tag, step, up)
		}
		if err := m.Validate(g); err != nil {
			t.Fatalf("%s step %d (%v): %v", tag, step, up, err)
		}
		// Counters must be exact.
		for v := 0; v < g.N(); v++ {
			want := int32(0)
			g.EachNeighbor(v, func(w int, _ graph.Weight) bool {
				if mt[w] == -1 {
					want++
				}
				return true
			})
			got := m.statPeek(int32(v)).freeNbr
			if got != want {
				t.Fatalf("%s step %d (%v): freeNbr(%d) = %d, want %d",
					tag, step, up, v, got, want)
			}
		}
	}
}

func TestApx32Basic(t *testing.T) {
	m := New(Config{N: 8, CapEdges: 40, ThreeHalves: true})
	g := graph.New(8)
	drive32(t, m, g, []graph.Update{
		{Op: graph.Insert, U: 0, V: 1}, // match (0,1)
		{Op: graph.Insert, U: 2, V: 3}, // match (2,3)
		{Op: graph.Insert, U: 1, V: 2}, // both matched
		{Op: graph.Insert, U: 4, V: 0}, // 4 free, 0 matched: aug via (0,1): 1 has free nbr 2? 2 matched. none
		{Op: graph.Insert, U: 5, V: 1}, // 5 free, 1 matched: mate 0 has free nbr? 4 free! rotate
		{Op: graph.Delete, U: 2, V: 3},
		{Op: graph.Insert, U: 6, V: 7},
		{Op: graph.Delete, U: 6, V: 7},
	}, "basic")
}

// TestApx32RandomStreams drives random streams through §4 inline, then
// replays each at replicaWorkers: the §4 counter and list traffic is under
// the payload rule too, and the replicas must end on the inline mate
// table and accounting.
func TestApx32RandomStreams(t *testing.T) {
	const n = 20
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed + 21))
		cfg := Config{N: n, CapEdges: 120, ThreeHalves: true}
		m := New(cfg)
		g := graph.New(n)
		stream := graph.RandomStream(n, 250, 0.55, 1, rng)
		drive32(t, m, g, stream, "random32")
		for _, rep := range replicas(cfg) {
			for _, up := range stream {
				applyUpdate(rep, up)
			}
			assertReplicaEquivalent(t, m, rep)
			rep.Close()
		}
	}
}

func TestApx32ApproximationFactor(t *testing.T) {
	// With no length-3 augmenting paths, 3·|M| >= 2·|M*| must hold; check
	// directly against exact maximum matchings on small graphs.
	const n = 14
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed + 31))
		m := New(Config{N: n, CapEdges: 60, ThreeHalves: true})
		g := graph.New(n)
		for _, up := range graph.RandomStream(n, 120, 0.6, 1, rng) {
			applyUpdate(m, up)
			g.Apply(up)
			size := graph.MatchingSize(m.MateTable())
			if 3*size < 2*graph.MaxMatchingSize(g) {
				t.Fatalf("seed %d after %v: |M|=%d vs max %d violates 3/2",
					seed, up, size, graph.MaxMatchingSize(g))
			}
		}
	}
}

func TestApx32PathRotationScenario(t *testing.T) {
	// Construct the canonical rotation: matched edge (b,c) with free a
	// adjacent to b and free d adjacent to c; inserting (a,b) last must
	// trigger the rotation leaving all four matched.
	m := New(Config{N: 4, CapEdges: 16, ThreeHalves: true})
	g := graph.New(4)
	drive32(t, m, g, []graph.Update{
		{Op: graph.Insert, U: 1, V: 2}, // match (1,2)
		{Op: graph.Insert, U: 2, V: 3}, // 3 free, 2 matched: mate 1 has no free nbr
		{Op: graph.Insert, U: 0, V: 1}, // 0 free, 1 matched: mate 2 has free nbr 3: rotate
	}, "rotation")
	mt := m.MateTable()
	for v := 0; v < 4; v++ {
		if mt[v] == -1 {
			t.Fatalf("vertex %d left free after rotation; mate table %v", v, mt)
		}
	}
}

func TestApx32DeleteTriggersSweep(t *testing.T) {
	// A path a-b-c-d with (b,c) matched; deleting (b,c) frees both, and
	// the sweep must leave a maximal matching without length-3 paths.
	m := New(Config{N: 6, CapEdges: 20, ThreeHalves: true})
	g := graph.New(6)
	drive32(t, m, g, []graph.Update{
		{Op: graph.Insert, U: 1, V: 2},
		{Op: graph.Insert, U: 0, V: 1},
		{Op: graph.Insert, U: 2, V: 3},
		{Op: graph.Delete, U: 1, V: 2},
	}, "sweep")
	mt := m.MateTable()
	if mt[0] != 1 || mt[2] != 3 {
		t.Fatalf("expected (0,1) and (2,3) matched; got %v", mt)
	}
}

func TestApx32BoundsRow(t *testing.T) {
	// Table 1 row 2: O(1) rounds, O(n/√N) machines, O(√N) words.
	const n = 30
	rng := rand.New(rand.NewSource(8))
	m := New(Config{N: n, CapEdges: 150, ThreeHalves: true})
	g := graph.New(n)
	worstRounds := 0
	for _, up := range graph.RandomStream(n, 200, 0.55, 1, rng) {
		var st = ins(m, up.U, up.V)
		if up.Op == graph.Delete {
			st = del(m, up.U, up.V)
		}
		g.Apply(up)
		if st.Rounds > worstRounds {
			worstRounds = st.Rounds
		}
	}
	if worstRounds > 60 {
		t.Fatalf("worst rounds %d exceeds protocol constant", worstRounds)
	}
	if m.Cluster().Stats().Violations != 0 {
		t.Fatalf("%d model violations", m.Cluster().Stats().Violations)
	}
}
