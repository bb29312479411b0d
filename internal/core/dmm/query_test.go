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

// TestReadsHoldNoMemory pins that an answer is output, not state: a
// read-only window of 1 000 mate reads, every one answered by the same
// statistics machine, leaves the cluster's memory high-water mark where
// the updates left it, and the answers equal the mate table.
func TestReadsHoldNoMemory(t *testing.T) {
	const n = 32
	m := New(Config{N: n})
	for v := 0; v+1 < n; v += 2 {
		ins(m, v, v+1)
	}
	peak := m.Cluster().Stats().PeakMemWords
	oracle := m.MateTable()
	per := min(m.coord.statsPer, n) // vertices [0, per) share statistics machine 1
	ops := make([]graph.Op, 1000)
	for i := range ops {
		ops[i] = graph.OpQMateOf(i % per)
	}
	res, _ := m.ApplyOps(ops)
	for i, a := range res {
		if int(a.Int) != oracle[i%per] {
			t.Fatalf("read %d: mate(%d) = %d, oracle %d", i, i%per, a.Int, oracle[i%per])
		}
	}
	if got := m.Cluster().Stats().PeakMemWords; got != peak {
		t.Fatalf("1000 reads moved the memory peak %d -> %d words", peak, got)
	}
}
