package dmm

import (
	"math/rand"
	"testing"

	"dmpc/internal/graph"
)

// TestMateQueries pins the §3 protocol query path: OpMateOf/OpMatched agree
// with the MateTable validation oracle, a read-only window of k mate
// queries costs one shared round, and its rounds land on the query half,
// never the update half.
func TestMateQueries(t *testing.T) {
	const n = 48
	rng := rand.New(rand.NewSource(11))
	m := New(Config{N: n, CapEdges: 4 * n})
	for _, up := range graph.RandomStream(n, 160, 0.6, 1, rng) {
		applyUpdate(m, up)
	}

	oracle := m.MateTable()
	ops := make([]graph.Op, n)
	for v := range ops {
		ops[v] = graph.OpQMateOf(v)
	}
	got, st := m.ApplyOps(ops)
	for v := range ops {
		if int(got[v].Int) != oracle[v] {
			t.Fatalf("OpMateOf[%d] = %d, oracle %d", v, got[v].Int, oracle[v])
		}
	}
	if st.Queries.Ops != n {
		t.Fatalf("query half %+v, want one covering %d queries", st.Queries, n)
	}
	if st.Queries.Rounds != 1 {
		t.Fatalf("k=%d mate window cost %d rounds, want 1 shared round", n, st.Queries.Rounds)
	}
	// Queries must not have billed the update half (the trailing ack drain
	// finds nothing in flight after a read-only window).
	if st.Updates.Rounds != 0 {
		t.Fatalf("queries leaked %d rounds into update accounting", st.Updates.Rounds)
	}

	for _, v := range []int{0, 7, n - 1} {
		if mateOf(m, v) != oracle[v] {
			t.Fatalf("OpMateOf(%d) = %d, oracle %d", v, mateOf(m, v), oracle[v])
		}
		if oracle[v] >= 0 && !matched(m, v, oracle[v]) {
			t.Fatalf("OpMatched(%d,%d) = false for a matched pair", v, oracle[v])
		}
		if matched(m, v, v) {
			t.Fatalf("OpMatched(%d,%d) = true for a self-loop", v, v)
		}
	}
}
