package dyncon

import (
	"testing"

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
