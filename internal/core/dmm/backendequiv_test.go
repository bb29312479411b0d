package dmm

import (
	"testing"

	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// replicaWorkers are the worker counts every equivalence suite replays an
// inline (Workers ≤ 1) instance's stream at: three shards, so corpus
// replay exercises the channel-woken worker path, and one goroutine per
// machine (the count need only reach µ), so CI's -race replay sees every
// pair of co-active machines on separate goroutines.
var replicaWorkers = []int{3, 1 << 16}

// replicas builds one instance of cfg per replicaWorkers entry.
func replicas(cfg Config) []*M {
	var ms []*M
	for _, w := range replicaWorkers {
		cfg.Workers = w
		ms = append(ms, New(cfg))
	}
	return ms
}

// assertReplicaEquivalent pins the determinism rule between an inline
// instance and a replica at another worker count that consumed the same
// chunked stream: identical mate table and bit-identical cluster
// accounting.
func assertReplicaEquivalent(t *testing.T, inline, rep *M) {
	t.Helper()
	wantT, gotT := inline.MateTable(), rep.MateTable()
	for v := range wantT {
		if wantT[v] != gotT[v] {
			t.Fatalf("workers=%d replica mate of %d: %d, inline %d", rep.cfg.Workers, v, gotT[v], wantT[v])
		}
	}
	assertSameAccounting(t, inline.Cluster(), rep.Cluster())
}

// assertSameAccounting compares the accounting every worker count must
// reproduce bit for bit.
func assertSameAccounting(t *testing.T, inline, rep *mpc.Cluster) {
	t.Helper()
	a, b := inline.Stats(), rep.Stats()
	if a.Rounds != b.Rounds || a.Words != b.Words || a.Messages != b.Messages ||
		a.Violations != b.Violations || a.PeakMemWords != b.PeakMemWords {
		t.Fatalf("replica accounting (rounds %d, words %d, msgs %d, viol %d, peak %d) diverges from inline (rounds %d, words %d, msgs %d, viol %d, peak %d)",
			b.Rounds, b.Words, b.Messages, b.Violations, b.PeakMemWords,
			a.Rounds, a.Words, a.Messages, a.Violations, a.PeakMemWords)
	}
}

// TestOutOfStepFlowsKeepPayloads runs one wave whose two flows fall out
// of step, inline and at replicaWorkers. Deleting (0,8) drops the star
// center 0 below the heavy threshold, and its transitionDown waits a round
// longer than a round trip for the target's acks; inserting (21,22) next
// to the matched 21 reads its mate's stat first. So MC stores 21's and
// 22's records in one round, and the delete's end-of-update refresh
// leaves in the next: a store MC sent must outlive its next round's sends,
// which a sender with one slab instead of two breaks (storage goes wrong
// at every worker count, and the replicas race).
func TestOutOfStepFlowsKeepPayloads(t *testing.T) {
	cfg := Config{N: 32, CapEdges: 16}
	g := graph.New(cfg.N)
	var set graph.Batch
	for v := 1; v <= 8; v++ {
		set = append(set, graph.Update{Op: graph.Insert, U: 0, V: v})
	}
	set = append(set, graph.Update{Op: graph.Insert, U: 20, V: 21})
	wave := graph.Batch{{Op: graph.Delete, U: 0, V: 8}, {Op: graph.Insert, U: 21, V: 22}}
	set.Apply(g)
	wave.Apply(g)
	inline := New(cfg)
	for _, m := range append([]*M{inline}, replicas(cfg)...) {
		for _, up := range set {
			applyUpdate(m, up)
		}
		if !m.statPeek(0).heavy {
			t.Fatalf("workers=%d: star center not heavy after its set-up", m.cfg.Workers)
		}
		if _, st := m.ApplyOps(graph.UpdateOps(wave)); len(st.Waves) != 1 || st.Waves[0].Updates != 2 {
			t.Fatalf("workers=%d: the two updates ran as %+v, want one wave of both", m.cfg.Workers, st.Waves)
		}
		if err := m.Validate(g); err != nil {
			t.Errorf("workers=%d: %v", m.cfg.Workers, err)
		} else if m != inline {
			assertReplicaEquivalent(t, inline, m)
		}
		m.Close()
	}
}
