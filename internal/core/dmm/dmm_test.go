package dmm

import (
	"math/rand"
	"testing"

	"dmpc/internal/graph"
)

// drive applies a stream, checking matching validity + maximality and the
// storage invariants after every update.
func drive(t *testing.T, m *M, g *graph.Graph, updates []graph.Update, tag string) {
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
		if err := m.Validate(g); err != nil {
			t.Fatalf("%s step %d (%v): %v", tag, step, up, err)
		}
	}
}

func TestMatchingBasic(t *testing.T) {
	m := New(Config{N: 6, CapEdges: 32})
	g := graph.New(6)
	drive(t, m, g, []graph.Update{
		{Op: graph.Insert, U: 0, V: 1},
		{Op: graph.Insert, U: 2, V: 3},
		{Op: graph.Insert, U: 1, V: 2}, // both matched: nothing
		{Op: graph.Delete, U: 0, V: 1}, // 0 free; 1 rematches via (1,2)? 2 is matched
		{Op: graph.Insert, U: 0, V: 4},
		{Op: graph.Delete, U: 2, V: 3},
		{Op: graph.Insert, U: 3, V: 5},
		{Op: graph.Delete, U: 0, V: 4},
	}, "basic")
}

func TestMatchingRandomStreams(t *testing.T) {
	const n = 24
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New(Config{N: n, CapEdges: 150})
		g := graph.New(n)
		drive(t, m, g, graph.RandomStream(n, 300, 0.55, 1, rng), "random")
	}
}

func TestMatchingStarForcesHeavy(t *testing.T) {
	// A hub star: the hub crosses the heavy threshold, exercising
	// promote, alive windows, suspended stacks and the surrogate path.
	const leaves = 40
	m := New(Config{N: leaves + 1, CapEdges: leaves + 10})
	g := graph.New(leaves + 1)
	var ups []graph.Update
	for i := 1; i <= leaves; i++ {
		ups = append(ups, graph.Update{Op: graph.Insert, U: 0, V: i})
	}
	drive(t, m, g, ups, "star-build")
	if g.Degree(0) < m.coord.heavyAt {
		t.Skip("star too small to cross the heavy threshold")
	}
	// Delete the hub's matched edge repeatedly: the hub must stay matched
	// (Invariant 3.1) via free neighbors.
	for round := 0; round < 10; round++ {
		mate := m.MateTable()[0]
		if mate == -1 {
			t.Fatalf("round %d: heavy hub unmatched with free leaves around", round)
		}
		drive(t, m, g, []graph.Update{{Op: graph.Delete, U: 0, V: mate}}, "star-del")
	}
}

func TestMatchingSurrogateSteal(t *testing.T) {
	// Build two stars joined so that the heavy hub's neighbors are all
	// matched, forcing the steal path when the hub loses its mate.
	const n = 30
	rng := rand.New(rand.NewSource(9))
	m := New(Config{N: n, CapEdges: 120})
	g := graph.New(n)
	var ups []graph.Update
	// Hub 0 connected to 1..14; those leaves pairwise matched via a path.
	for i := 1; i <= 14; i++ {
		ups = append(ups, graph.Update{Op: graph.Insert, U: 0, V: i})
	}
	for i := 1; i+1 <= 14; i += 2 {
		ups = append(ups, graph.Update{Op: graph.Insert, U: i, V: i + 1})
	}
	drive(t, m, g, ups, "steal-build")
	// Random churn on the hub's matched edge.
	for round := 0; round < 12; round++ {
		mate := m.MateTable()[0]
		if mate == -1 {
			// Hub free: every neighbor matched; insert an edge to wake it.
			v := 15 + rng.Intn(10)
			if !g.Has(0, v) {
				drive(t, m, g, []graph.Update{{Op: graph.Insert, U: 0, V: v}}, "steal-ins")
			}
			continue
		}
		drive(t, m, g, []graph.Update{{Op: graph.Delete, U: 0, V: mate}}, "steal-del")
	}
}

func TestMatchingTransitions(t *testing.T) {
	// Push one vertex across the heavy threshold and back, repeatedly.
	const n = 50
	m := New(Config{N: n, CapEdges: 100})
	g := graph.New(n)
	thr := m.coord.heavyAt
	var build []graph.Update
	for i := 1; i <= thr+3; i++ {
		build = append(build, graph.Update{Op: graph.Insert, U: 0, V: i})
	}
	drive(t, m, g, build, "up")
	var tear []graph.Update
	for i := 1; i <= 6; i++ {
		tear = append(tear, graph.Update{Op: graph.Delete, U: 0, V: i})
	}
	drive(t, m, g, tear, "down")
	var again []graph.Update
	for i := 1; i <= 6; i++ {
		again = append(again, graph.Update{Op: graph.Insert, U: 0, V: i})
	}
	drive(t, m, g, again, "up-again")
}

func TestRoundsMachinesCommBounds(t *testing.T) {
	// Table 1 row 1: O(1) rounds, O(1) active machines, O(√N) words.
	const n = 40
	rng := rand.New(rand.NewSource(3))
	m := New(Config{N: n, CapEdges: 200})
	g := graph.New(n)
	worstRounds, worstActive := 0, 0
	for _, up := range graph.RandomStream(n, 250, 0.55, 1, rng) {
		var st = ins(m, up.U, up.V)
		if up.Op == graph.Delete {
			st = del(m, up.U, up.V)
		}
		g.Apply(up)
		if st.Rounds > worstRounds {
			worstRounds = st.Rounds
		}
		if st.MaxActive > worstActive {
			worstActive = st.MaxActive
		}
	}
	if worstRounds > 30 {
		t.Fatalf("worst rounds %d exceeds the protocol constant", worstRounds)
	}
	if worstActive > 10 {
		t.Fatalf("worst active machines %d: should be O(1)", worstActive)
	}
	if m.Cluster().Stats().Violations != 0 {
		t.Fatalf("%d model violations", m.Cluster().Stats().Violations)
	}
}

func TestHistoryRefreshKeepsMachinesCurrent(t *testing.T) {
	// Long runs must not overflow the history ring (the round-robin
	// refresh guarantees every machine syncs in time). The panic inside
	// hAppend is the tripwire.
	const n = 16
	rng := rand.New(rand.NewSource(5))
	m := New(Config{N: n, CapEdges: 80})
	g := graph.New(n)
	drive(t, m, g, graph.RandomStream(n, 800, 0.5, 1, rng), "long")
}

// TestFallbackAccounting: the fallback counter exists for the rare
// small-scale case where the alive window offers no surrogate; on ordinary
// random streams it should stay tiny relative to the update count.
func TestFallbackAccounting(t *testing.T) {
	const n = 24
	rng := rand.New(rand.NewSource(17))
	m := New(Config{N: n, CapEdges: 120})
	g := graph.New(n)
	updates := graph.RandomStream(n, 400, 0.55, 1, rng)
	drive(t, m, g, updates, "fallback")
	if m.Fallbacks() > int64(len(updates))/4 {
		t.Fatalf("fallbacks %d out of %d updates: surrogate search is broken",
			m.Fallbacks(), len(updates))
	}
}
