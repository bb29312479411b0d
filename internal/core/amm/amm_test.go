package amm

import (
	"math/rand"
	"testing"

	"dmpc/internal/graph"
)

func applyStream(t *testing.T, m *M, g *graph.Graph, updates []graph.Update, validate bool) {
	t.Helper()
	for step, up := range updates {
		if up.Op == graph.Insert {
			m.Insert(up.U, up.V)
		} else {
			m.Delete(up.U, up.V)
		}
		g.Apply(up)
		if !graph.IsMatching(g, m.MateTable()) {
			t.Fatalf("step %d (%v): invalid matching", step, up)
		}
		if validate {
			if err := m.Validate(g); err != nil {
				t.Fatalf("step %d (%v): %v", step, up, err)
			}
		}
	}
}

func TestAmmBasic(t *testing.T) {
	m := New(Config{N: 8, Seed: 1})
	g := graph.New(8)
	applyStream(t, m, g, []graph.Update{
		{Op: graph.Insert, U: 0, V: 1},
		{Op: graph.Insert, U: 2, V: 3},
		{Op: graph.Insert, U: 1, V: 2},
		{Op: graph.Delete, U: 0, V: 1},
		{Op: graph.Insert, U: 4, V: 5},
		{Op: graph.Delete, U: 2, V: 3},
		{Op: graph.Delete, U: 4, V: 5},
	}, true)
}

func TestAmmRandomStreamsStayValid(t *testing.T) {
	const n = 30
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New(Config{N: n, Seed: seed})
		g := graph.New(n)
		applyStream(t, m, g, graph.RandomStream(n, 300, 0.55, 1, rng), true)
	}
}

func TestAmmAlmostMaximal(t *testing.T) {
	// The §6 guarantee: at most an ε-fraction of a maximal matching's
	// edges are missing. Measure the deficit (free-free edges) after a
	// a quiet period (a few no-op cycles let the queues drain).
	const n = 40
	rng := rand.New(rand.NewSource(9))
	m := New(Config{N: n, Seed: 5})
	g := graph.New(n)
	applyStream(t, m, g, graph.RandomStream(n, 400, 0.6, 1, rng), false)
	// Drain: deletions/insertions of a scratch edge drive extra cycles.
	for i := 0; i < 30; i++ {
		m.Insert(0, n-1)
		m.Delete(0, n-1)
	}
	mt := m.MateTable()
	if !graph.IsMatching(g, mt) {
		t.Fatal("invalid matching after drain")
	}
	deficit := graph.CountFreeFreeEdges(g, mt)
	matched := graph.MatchingSize(mt)
	if deficit > matched/3+1 {
		t.Fatalf("deficit %d too large for matching of size %d (backlog %d)",
			deficit, matched, m.QueueBacklog())
	}
	// And the (2+eps) factor against the exact maximum on the final graph
	// (indirectly: a matching with deficit d has size >= (maximal-d)/1).
	if g.N() <= 22 {
		if 3*matched+2*deficit < graph.MaxMatchingSize(g) {
			t.Fatalf("approximation too weak: %d matched, max %d", matched, graph.MaxMatchingSize(g))
		}
	}
}

func TestAmmLevelsAndSupports(t *testing.T) {
	// Levels must be -1 exactly for free vertices; matched pairs share a
	// level >= 0 (checked by Validate); supports decay triggers proactive
	// unmatches without breaking validity.
	const n = 24
	rng := rand.New(rand.NewSource(4))
	m := New(Config{N: n, Seed: 11})
	g := graph.New(n)
	applyStream(t, m, g, graph.RandomStream(n, 250, 0.7, 1, rng), true)
	lv := m.Levels()
	mt := m.MateTable()
	for v := 0; v < n; v++ {
		if (mt[v] == -1) != (lv[v] == -1) {
			t.Fatalf("vertex %d: mate %d level %d", v, mt[v], lv[v])
		}
	}
}

func TestAmmBoundsRow(t *testing.T) {
	// Table 1 row 3: O(1) rounds per update, Õ(1) active machines, Õ(1)
	// words per round. Rounds are fixed by construction (7); machines and
	// words must stay well below the cluster size / √N scale.
	const n = 64
	rng := rand.New(rand.NewSource(2))
	m := New(Config{N: n, Seed: 3})
	g := graph.New(n)
	worstActive, worstWords := 0, 0
	for _, up := range graph.RandomStream(n, 300, 0.55, 1, rng) {
		var st = m.Insert(up.U, up.V)
		if up.Op == graph.Delete {
			st = m.Delete(up.U, up.V)
		}
		g.Apply(up)
		if st.Rounds != 7 {
			t.Fatalf("rounds = %d, want the fixed 7-round cycle", st.Rounds)
		}
		if st.MaxActive > worstActive {
			worstActive = st.MaxActive
		}
		if st.MaxWords > worstWords {
			worstWords = st.MaxWords
		}
	}
	polylog := 8 * bits(n) * bits(n)
	if worstActive > polylog {
		t.Fatalf("worst active %d exceeds polylog budget %d", worstActive, polylog)
	}
	if worstWords > 16*polylog {
		t.Fatalf("worst words %d exceeds polylog budget", worstWords)
	}
}

func TestAmmChurnOnMatchedEdges(t *testing.T) {
	// Adversarially delete currently-matched edges: the structure must
	// keep the matching valid and recover via the queues.
	const n = 20
	m := New(Config{N: n, Seed: 7})
	g := graph.New(n)
	rng := rand.New(rand.NewSource(13))
	applyStream(t, m, g, graph.RandomStream(n, 150, 0.9, 1, rng), true)
	for round := 0; round < 30; round++ {
		mt := m.MateTable()
		deleted := false
		for v := 0; v < n && !deleted; v++ {
			if mt[v] > v && g.Has(v, mt[v]) {
				applyStream(t, m, g, []graph.Update{{Op: graph.Delete, U: v, V: mt[v]}}, true)
				deleted = true
			}
		}
		if !deleted {
			break
		}
	}
}
