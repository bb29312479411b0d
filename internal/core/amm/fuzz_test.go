package amm

import (
	"testing"

	"dmpc/internal/graph"
)

// FuzzBatchEquivalence is the property-based harness for the randomized §6
// batch pipeline. Exact edge-for-edge equality with sequential replay is
// NOT the contract here — shuffle/rise probes fire per scheduler cycle, not
// per update, so batching legitimately lands on a different almost-maximal
// matching (see the ApplyOps comment and DESIGN.md). What must hold for
// every update sequence and every chunking, and what this fuzzer asserts,
// is equivalence at the level of the §6 guarantees over the *same final
// graph* as sequential replay: the batched matching is a valid matching,
// every §6 invariant passes, and the accounting covers the whole batch.
// The raw bytes decode through graph.FuzzStreamWellFormed because amm's
// owner bookkeeping, like dmm's, assumes the well-formed stream contract.
// All three replicas are validated, so the probe-index audits run on each;
// the committed seed shuffle-probe-hit (a star of eight around vertex 0
// whose matched edge is deleted, so 0 rematches at level 1, then churn
// elsewhere) makes a shuffle probe find a candidate in every replica.
//
// Run the full fuzzer with:
//
//	go test -run FuzzBatchEquivalence -fuzz FuzzBatchEquivalence ./internal/core/amm
func FuzzBatchEquivalence(f *testing.F) {
	f.Add(byte(1), []byte("abcabdacd"))
	f.Add(byte(7), []byte("0120340516273809"))
	f.Add(byte(48), []byte("ABCABDABEACD!bcd!ace02460135"))
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		const n = 20
		if len(data) > 300 { // 100 updates keeps a fuzz iteration fast
			data = data[:300]
		}
		stream := graph.FuzzStreamWellFormed(data, n, 1)
		if len(stream) == 0 {
			t.Skip()
		}
		k := 1 + int(sel)%len(stream)

		seqM := New(Config{N: n, Seed: 7})
		gSeq := graph.New(n)
		for _, up := range stream {
			cycle(seqM, up)
			gSeq.Apply(up)
		}

		batM := New(Config{N: n, Seed: 7})
		g := graph.New(n)
		for _, b := range graph.Chunk(stream, k) {
			st := applyBatch(batM, b)
			if st.Ops != len(b) {
				t.Fatalf("batch stats cover %d updates, batch has %d", st.Ops, len(b))
			}
			b.Apply(g)
		}

		// Same final graph, and both replays uphold the §6 guarantees on it.
		if g.M() != gSeq.M() {
			t.Fatalf("k=%d: final graphs diverge: %d vs %d edges", k, g.M(), gSeq.M())
		}
		if !graph.IsMatching(g, seqM.MateTable()) {
			t.Fatalf("k=%d: sequential matching invalid", k)
		}
		if !graph.IsMatching(g, batM.MateTable()) {
			t.Fatalf("k=%d: batched matching invalid", k)
		}
		if err := seqM.Validate(gSeq); err != nil {
			t.Fatalf("k=%d: invariants broken after sequential replay: %v", k, err)
		}
		if err := batM.Validate(g); err != nil {
			t.Fatalf("k=%d: invariants broken after batches: %v", k, err)
		}
		if v := batM.Cluster().Stats().Violations; v != 0 {
			t.Fatalf("k=%d: %d cluster constraint violations", k, v)
		}

		// Worker-count replicas: §6 is randomized but seeded, so a sharded
		// replica of the *batched* replay (same seed, same chunks) — over
		// three shards and over one goroutine per machine — must land on
		// the bit-identical matching and accounting: the determinism rule
		// survives the randomized scheduler.
		for _, w := range []int{3, 1 << 16} {
			parM := New(Config{N: n, Seed: 7, Workers: w})
			defer parM.Close()
			for _, b := range graph.Chunk(stream, k) {
				applyBatch(parM, b)
			}
			if err := parM.Validate(g); err != nil {
				t.Fatalf("k=%d: invariants broken on the workers=%d replica: %v", k, w, err)
			}
			wantT, gotT := batM.MateTable(), parM.MateTable()
			for v := range wantT {
				if wantT[v] != gotT[v] {
					t.Fatalf("k=%d: workers=%d replica mate of %d: %d, inline %d", k, w, v, gotT[v], wantT[v])
				}
			}
			a, b := batM.Cluster().Stats(), parM.Cluster().Stats()
			if a.Rounds != b.Rounds || a.Words != b.Words || a.Messages != b.Messages ||
				a.Violations != b.Violations || a.PeakMemWords != b.PeakMemWords {
				t.Fatalf("k=%d: workers=%d replica accounting (rounds %d, words %d) diverges from inline (rounds %d, words %d)",
					k, w, b.Rounds, b.Words, a.Rounds, a.Words)
			}
		}
	})
}
