package dmm

import (
	"math/rand"
	"testing"

	"dmpc/internal/graph"
)

// TestWavePermutationCommutativity is the commutativity proof obligation
// of the dmm wave scheduler as a property test: for every wave the batch
// driver forms, injecting the wave's updates at MC in any order must yield
// a bit-identical mate table — and identical degree/heaviness statistics —
// because wave members touch disjoint vertices (endpoints and their
// current mates are exclusive keys, cascading updates run solo). The test
// replays the same chunked stream with the injection order of every wave
// shuffled under several seeds (via the wavePerm test hook) and demands
// equality with both the unpermuted run and plain sequential application.
func TestWavePermutationCommutativity(t *testing.T) {
	const n, capEdges = 48, 300
	stream := graph.RandomStream(n, 240, 0.55, 1, rand.New(rand.NewSource(41)))
	g := graph.New(n)
	graph.Batch(stream).Apply(g)

	run := func(perm func(wave []int)) *M {
		m := New(Config{N: n, CapEdges: capEdges})
		m.wavePerm = perm
		for _, b := range graph.Chunk(stream, 32) {
			applyBatch(m, b)
		}
		return m
	}

	seqM := New(Config{N: n, CapEdges: capEdges})
	for _, up := range stream {
		applyUpdate(seqM, up)
	}
	want := seqM.MateTable()

	base := run(nil)
	if err := base.Validate(g); err != nil {
		t.Fatalf("baseline invariants broken: %v", err)
	}
	for v, mate := range base.MateTable() {
		if want[v] != mate {
			t.Fatalf("wave schedule diverged from sequential replay: mate of %d is %d, want %d", v, mate, want[v])
		}
	}

	fingerprint := func(m *M) []stat {
		out := make([]stat, n)
		for v := 0; v < n; v++ {
			out[v] = m.statPeek(int32(v))
		}
		return out
	}
	wantStats := fingerprint(base)

	permuted := 0
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		m := run(func(wave []int) {
			if len(wave) > 1 {
				permuted++
			}
			rng.Shuffle(len(wave), func(i, j int) { wave[i], wave[j] = wave[j], wave[i] })
		})
		got := fingerprint(m)
		for v := 0; v < n; v++ {
			if got[v].mate != wantStats[v].mate || got[v].deg != wantStats[v].deg || got[v].heavy != wantStats[v].heavy {
				t.Fatalf("seed %d: permuted wave execution diverged at vertex %d: mate/deg/heavy (%d,%d,%v), want (%d,%d,%v)",
					seed, v, got[v].mate, got[v].deg, got[v].heavy,
					wantStats[v].mate, wantStats[v].deg, wantStats[v].heavy)
			}
		}
		if err := m.Validate(g); err != nil {
			t.Fatalf("seed %d: invariants broken: %v", seed, err)
		}
		if v := m.Cluster().Stats().Violations; v != 0 {
			t.Fatalf("seed %d: %d cluster constraint violations", seed, v)
		}
	}
	if permuted == 0 {
		t.Fatal("no wave wider than 1 was ever permuted — the property was vacuous")
	}
}

// chainedRoundsSeed9 is the frozen figure of the PR 1 coordinator-chaining
// batch path (all k updates injected at MC in one round and executed
// strictly in order, sharing only the injection round and the ack tail),
// which the wave scheduler replaced as the batch driver. The standalone
// path is gone (chaining survives only as ApplyOps' serial-segment mode);
// this was measured once on the stream below at commit 9b25edb, the last
// one that carried it: 1602 rounds over 384 updates at k=64, 4.172
// rounds/update.
const chainedRoundsSeed9 = 1602

// TestWaveBatchBeatsChained pins the batch-dynamic headline of the wave
// scheduler: on a stream with endpoint-disjoint stretches its amortized
// rounds per update at k=64 beat the coordinator-chaining figure, genuine
// multi-update waves actually formed, and the matching is the sequential
// one.
func TestWaveBatchBeatsChained(t *testing.T) {
	const n, capEdges = 96, 600
	stream := graph.RandomStream(n, 384, 0.55, 1, rand.New(rand.NewSource(9)))

	seqM := New(Config{N: n, CapEdges: capEdges})
	for _, up := range stream {
		applyUpdate(seqM, up)
	}

	waveM := New(Config{N: n, CapEdges: capEdges})
	var wRounds, widest int
	for _, b := range graph.Chunk(stream, 64) {
		_, st := waveM.ApplyOps(graph.UpdateOps(b))
		wRounds += st.Rounds()
		for _, w := range st.Waves {
			widest = max(widest, w.Updates)
		}
	}

	if wRounds >= chainedRoundsSeed9 {
		t.Fatalf("wave scheduler spent %d rounds, not below the chained baseline's %d", wRounds, chainedRoundsSeed9)
	}
	if widest < 2 {
		t.Fatalf("no wave wider than 1 formed (widest %d)", widest)
	}
	sm, wm := seqM.MateTable(), waveM.MateTable()
	for v := range sm {
		if sm[v] != wm[v] {
			t.Fatalf("schedulers disagree on mate of %d: sequential %d, waves %d", v, sm[v], wm[v])
		}
	}
}
