package dyncon

import (
	"fmt"
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
func replicas(cfg Config) []*D {
	var ds []*D
	for _, w := range replicaWorkers {
		cfg.Workers = w
		ds = append(ds, New(cfg))
	}
	return ds
}

// assertReplicaEquivalent pins the determinism rule between an inline
// instance and a replica at another worker count that consumed the same
// chunked stream: identical forest, component labels and distributed
// invariants, and bit-identical cluster accounting.
func assertReplicaEquivalent(t *testing.T, inline, rep *D) {
	t.Helper()
	w := rep.cfg.Workers
	if err := rep.Validate(); err != nil {
		t.Fatalf("workers=%d replica invariants: %v", w, err)
	}
	wf, pf := forestKey(inline), forestKey(rep)
	if len(wf) != len(pf) {
		t.Fatalf("workers=%d replica forest size %d, inline %d", w, len(pf), len(wf))
	}
	for i := range wf {
		if wf[i] != pf[i] {
			t.Fatalf("workers=%d replica forest edge %d: %v, inline %v", w, i, pf[i], wf[i])
		}
	}
	for v := 0; v < inline.cfg.N; v++ {
		if inline.CompOf(v) != rep.CompOf(v) {
			t.Fatalf("workers=%d replica component of %d: %d, inline %d", w, v, rep.CompOf(v), inline.CompOf(v))
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

// TestOutOfStepCutKeepsReplies runs, inline and at replicaWorkers, one wave
// in which a cut's orchestrator sends in the round it reads the cut's
// candidate replies, before it reads them all. Machine 0 orchestrates the
// cut of 12-13, which 12-17 replaces, the cut of 0-1, which nothing
// replaces, and the link of the singletons 4 and 8. At µ = 4 both cuts go
// to every machine, and an inbox is read by sender: in the round of the
// replies, machine 0's own size replies make it send its link, and machine
// 3's reply to the first cut makes it send the relink's info requests,
// before it reads machine 3's miss for the second cut. A reply that points
// into the orchestrator's outbox has been cleared by then, and so has every
// payload of a sender with one slab instead of two.
func TestOutOfStepCutKeepsReplies(t *testing.T) {
	cfg := Config{N: 64, Machines: 4, ExpectedEdges: 4096}
	set := graph.Batch{
		{Op: graph.Insert, U: 0, V: 1, W: 1}, {Op: graph.Insert, U: 1, V: 3, W: 1},
		{Op: graph.Insert, U: 12, V: 13, W: 1}, {Op: graph.Insert, U: 13, V: 17, W: 1}, {Op: graph.Insert, U: 12, V: 17, W: 1},
	}
	wave := graph.Batch{{Op: graph.Delete, U: 12, V: 13}, {Op: graph.Delete, U: 0, V: 1}, {Op: graph.Insert, U: 4, V: 8, W: 1}}
	g := graph.New(cfg.N)
	set.Apply(g)
	wave.Apply(g)
	inline := New(cfg)
	for _, d := range append([]*D{inline}, replicas(cfg)...) {
		tag := fmt.Sprintf("workers=%d", d.cfg.Workers)
		for _, up := range set {
			applyUpdate(d, up)
		}
		if _, st := d.ApplyOps(graph.UpdateOps(wave)); len(st.Waves) != 1 || st.Waves[0].Updates != 3 {
			t.Fatalf("%s: the three updates ran as %+v, want one wave of all", tag, st.Waves)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", tag, err)
		} else if checkPartition(t, d, g, tag); d != inline {
			assertReplicaEquivalent(t, inline, d)
		}
		d.Close()
	}
}
