package amm

import (
	"math/rand"
	"testing"

	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// TestMateQueries pins the §6 protocol query path: OpMateOf/OpMatched agree
// with the MateTable validation oracle (matching state is authoritative at
// the owners), a read-only window of k queries costs one shared round, and
// its rounds are charged to the query half only.
func TestMateQueries(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(9))
	m := New(Config{N: n, Seed: 3})
	g := graph.New(n)
	for _, up := range graph.RandomStream(n, 150, 0.6, 1, rng) {
		cycle(m, up)
		g.Apply(up)
	}

	ops := make([]graph.Op, n)
	for v := range ops {
		ops[v] = graph.OpQMateOf(v)
	}
	got, st := m.ApplyOps(ops)
	// Oracle read *after* the query: the read wave settles any update
	// traffic still in flight first, so the answers must match the settled
	// state — and be symmetric as a whole.
	oracle := m.MateTable()
	for v := range ops {
		if int(got[v].Int) != oracle[v] {
			t.Fatalf("OpMateOf[%d] = %d, oracle %d", v, got[v].Int, oracle[v])
		}
		if w := got[v].Int; w >= 0 && got[w].Int != int64(v) {
			t.Fatalf("asymmetric answers: mate(%d)=%d but mate(%d)=%d", v, w, w, got[w].Int)
		}
	}
	if q := st.Queries; q.Ops != n || q.Rounds != 1 || st.Updates.Rounds != 0 {
		t.Fatalf("read window %+v, want %d queries over 1 query-half round", st, n)
	}

	for _, v := range []int{0, 3, n - 1} {
		probes := []graph.Op{graph.OpQMateOf(v)}
		if oracle[v] >= 0 {
			probes = append(probes, graph.OpQMatched(v, oracle[v]))
		}
		res, _ := m.ApplyOps(probes)
		if int(res[0].Int) != oracle[v] {
			t.Fatalf("OpMateOf(%d) = %d, oracle %d", v, res[0].Int, oracle[v])
		}
		if oracle[v] >= 0 && !res[1].Bool {
			t.Fatalf("OpMatched(%d,%d) = false for a matched pair", v, oracle[v])
		}
	}
	if err := m.Validate(g); err != nil {
		t.Fatalf("invariants broken after the reads: %v", err)
	}
}

// TestQueryLeavesNoResidue pins the query-only-round rule: a mate query on
// a shard that still holds pending level-notification jobs must not re-send
// a scheduler report — the read costs its one round, leaves the cluster
// quiescent, and the next update's accounting is identical to a query-free
// run.
func TestQueryLeavesNoResidue(t *testing.T) {
	build := func(withQuery bool) mpc.HalfStats {
		m := New(Config{N: 32, Seed: 5})
		// A star around vertex 0 whose degree exceeds Delta, then a delete
		// of 0's matched edge: the level change queues more neighbor
		// notifications than one Δ-bounded tick can drain, so 0's owner
		// shard still holds pending jobs when the read arrives.
		for v := 1; v <= m.cfg.delta+4; v++ {
			m.Insert(0, v)
		}
		m.Delete(0, 1)
		// Settle any in-flight tail traffic so both runs start identically
		// (jobs only drain on scheduler ticks, so they stay pending).
		m.cluster.Run(64)
		if withQuery {
			_, st := m.ApplyOps([]graph.Op{graph.OpQMateOf(0)})
			if st.Queries.Rounds != 1 || st.Updates.Rounds != 0 {
				t.Fatalf("query on a jobs-pending shard cost %d+%d rounds, want 1", st.Queries.Rounds, st.Updates.Rounds)
			}
			if !m.cluster.Quiescent() {
				t.Fatal("read left traffic in flight for the next update window to absorb")
			}
		}
		return m.Insert(28, 29)
	}
	if quiet, noisy := build(false), build(true); quiet != noisy {
		t.Fatalf("post-query update accounting differs: %+v vs %+v", noisy, quiet)
	}
}

// TestReadsHoldNoMemory pins that an answer is output, not state: a
// read-only window of 1 000 mate reads, every one answered by the same
// shard, leaves the cluster's memory high-water mark where the updates
// left it, and the answers equal the mate table.
func TestReadsHoldNoMemory(t *testing.T) {
	const n = 64
	m := New(Config{N: n, Seed: 1})
	for v := 0; v+1 < n; v += 2 {
		m.Insert(v, v+1)
	}
	m.cluster.Run(64)
	peak := m.Cluster().Stats().PeakMemWords
	oracle := m.MateTable()
	mu := len(m.shards) // vertices 0, mu, 2mu share one owner
	ops := make([]graph.Op, 1000)
	for i := range ops {
		ops[i] = graph.OpQMateOf(i % 3 * mu)
	}
	res, _ := m.ApplyOps(ops)
	for i, a := range res {
		if v := i % 3 * mu; int(a.Int) != oracle[v] {
			t.Fatalf("read %d: mate(%d) = %d, oracle %d", i, v, a.Int, oracle[v])
		}
	}
	if got := m.Cluster().Stats().PeakMemWords; got != peak {
		t.Fatalf("1000 reads moved the memory peak %d -> %d words", peak, got)
	}
}
