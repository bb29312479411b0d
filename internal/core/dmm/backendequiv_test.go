package dmm

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
