package amm

import (
	"math/rand"
	"testing"

	"dmpc/internal/graph"
)

// TestBatchValidity pins the batch contract of the randomized §6
// structure: after every batch the matching is valid and the §6 invariants
// hold over the same final graph. (Exact equality with sequential
// application is not required here — shuffle/rise probes fire per cycle,
// not per update; see the ApplyOps comment.)
func TestBatchValidity(t *testing.T) {
	for _, k := range []int{1, 8, 32} {
		const n = 40
		rng := rand.New(rand.NewSource(23))
		stream := graph.RandomStream(n, 220, 0.55, 1, rng)
		m := New(Config{N: n, Seed: 7})
		g := graph.New(n)
		for _, b := range graph.Chunk(stream, k) {
			st := applyBatch(m, b)
			if st.Ops != len(b) || st.Rounds == 0 {
				t.Fatalf("k=%d: bad batch stats %+v", k, st)
			}
			b.Apply(g)
			if !graph.IsMatching(g, m.MateTable()) {
				t.Fatalf("k=%d: invalid matching after batch", k)
			}
			if err := m.Validate(g); err != nil {
				t.Fatalf("k=%d: invariants broken after batch: %v", k, err)
			}
		}
		if v := m.Cluster().Stats().Violations; v != 0 {
			t.Fatalf("k=%d: %d cluster constraint violations", k, v)
		}
		// No assertion on QueueBacklog: a residual backlog is legitimate
		// (vertices whose sampling pools are exhausted wait in queue under
		// sequential application too); Validate above already checks that
		// every free-free edge has a pending endpoint.
	}
}

// TestBatchAmortizedRoundsDrop pins the §6 batching win: cycles are shared
// across the batch (the scheduler drains Δ-bounded batches per cycle), so
// a k=64 window's rounds per update fall below the fixed seven of the
// per-update cycle — the k=1 protocol it is measured against.
func TestBatchAmortizedRoundsDrop(t *testing.T) {
	const n = 64
	stream := func() []graph.Update {
		return graph.RandomStream(n, 256, 0.55, 1, rand.New(rand.NewSource(29)))
	}
	m1 := New(Config{N: n, Seed: 9})
	rounds1 := 0
	for _, up := range stream() {
		rounds1 += cycle(m1, up).Rounds
	}
	m64 := New(Config{N: n, Seed: 9})
	rounds64 := 0
	for _, b := range graph.Chunk(stream(), 64) {
		rounds64 += applyBatch(m64, b).Rounds
	}
	if rounds64 >= rounds1 {
		t.Fatalf("amortized rounds/update did not drop: per-update %.2f, k=64 %.2f",
			float64(rounds1)/256, float64(rounds64)/256)
	}
}

// TestInjectWaveWidths pins how an update run is cut into injection
// waves: each wave is the longest endpoint-disjoint prefix of what
// remains (the packer's endpoint-prefix pattern), so (0,1),(2,3) share a
// wave and (1,4), which touches vertex 1 again, opens the next; the read
// that follows rides its own query-only wave.
func TestInjectWaveWidths(t *testing.T) {
	m := New(Config{N: 8, Seed: 1})
	_, st := m.ApplyOps([]graph.Op{
		graph.OpIns(0, 1, 1), graph.OpIns(2, 3, 1), graph.OpIns(1, 4, 1),
		graph.OpQMateOf(0),
	})
	var widths []int
	for _, w := range st.Waves {
		if w.Updates > 0 {
			widths = append(widths, w.Updates)
		}
	}
	if len(widths) != 2 || widths[0] != 2 || widths[1] != 1 {
		t.Fatalf("update wave widths = %v, want [2 1]", widths)
	}
	if len(st.Waves) != 3 || st.Waves[2].Updates != 0 || st.Waves[2].Queries != 1 {
		t.Fatalf("window waves = %+v, want two update waves then one read wave", st.Waves)
	}
}
