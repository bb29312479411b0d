package dmm

import (
	"testing"

	"dmpc/internal/graph"
)

// FuzzBatchEquivalence is the property-based equivalence harness for the
// batch pipeline, run on every input in both modes, §3 and §4
// (ThreeHalves): any update sequence, any chunking, and the wave-scheduled
// batch (phase-parallel flows for endpoint-disjoint updates, chained runs
// for serial stretches; §4 always chains) must produce the exact matching
// of sequential replay (dmm's case analysis is deterministic, so equality
// is edge-for-edge), maximal, and in §4 with no length-3 augmenting path.
// The raw bytes decode through graph.FuzzStreamWellFormed: dmm's degree
// bookkeeping assumes the standard well-formed stream contract (no
// duplicate inserts, no deletes of absent edges — see the startInsert
// comment), so the decoder enforces it while redirecting bogus deletes
// onto present edges to keep delete coverage high.
//
// The seeded corpus mixes conflict-heavy streams with endpoint-disjoint-
// heavy ones (pairs (0,1),(2,3),... inserted, re-covered, deleted): the
// latter drive the widest waves through the parallel path, the regime the
// scheduler exists for. One seed is built for §4's flows: its deletes
// leave free vertices next to length-3 augmenting paths, so the sweep
// rotates.
//
// Run the full fuzzer with:
//
//	go test -run FuzzBatchEquivalence -fuzz FuzzBatchEquivalence ./internal/core/dmm
func FuzzBatchEquivalence(f *testing.F) {
	f.Add(byte(1), []byte("abcabdacd"))
	f.Add(byte(5), []byte("0120340516273809"))
	f.Add(byte(32), []byte("ABCABDABEACD!bcd!ace02460135"))
	// Endpoint-disjoint-heavy: ten disjoint matched pairs, then disjoint
	// deletes of exactly those pairs (solo cascades after wide waves).
	f.Add(byte(16), []byte("\x00\x00\x01\x00\x02\x03\x00\x04\x05\x00\x06\x07\x00\x08\x09"+
		"\x00\x0a\x0b\x00\x0c\x0d\x00\x0e\x0f\x00\x10\x11\x00\x12\x13"+
		"\x01\x00\x01\x01\x02\x03\x01\x04\x05\x01\x06\x07\x01\x08\x09"+
		"\x01\x0a\x0b\x01\x0c\x0d\x01\x0e\x0f\x01\x10\x11\x01\x12\x13"))
	// Disjoint matched pairs, then disjoint non-matching inserts bridging
	// them, then disjoint deletes of those unmatched bridges — simple
	// updates throughout, the widest-wave regime.
	f.Add(byte(63), []byte("\x00\x00\x01\x00\x02\x03\x00\x04\x05\x00\x06\x07\x00\x08\x09"+
		"\x00\x0a\x0b\x00\x0c\x0d\x00\x0e\x0f\x00\x10\x11\x00\x12\x13"+
		"\x00\x01\x02\x00\x03\x04\x00\x05\x06\x00\x07\x08\x00\x09\x0a"+
		"\x01\x01\x02\x01\x03\x04\x01\x05\x06\x01\x07\x08\x01\x09\x0a"))
	// §4-heavy: four groups a-b-c-d-e of five vertices. Disjoint matched
	// pairs (b,c) and (d,e), a pendant a on b (no rotation yet: c has no
	// free neighbor) and a bridge (c,d) between matched vertices; then
	// deletes of the pairs (d,e). Each delete frees d next to the path
	// d - (c,b) - a, so §4's sweep rotates it to (d,c), (b,a).
	var apx []byte
	for g := byte(0); g < 20; g += 5 {
		a, b, c, d, e := g, g+1, g+2, g+3, g+4
		apx = append(apx, 0, b, c, 0, d, e, 0, a, b, 0, c, d)
	}
	for g := byte(0); g < 20; g += 5 {
		apx = append(apx, 1, g+3, g+4)
	}
	f.Add(byte(7), apx)
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
		g := graph.New(n)
		graph.Batch(stream).Apply(g)

		for _, threeHalves := range []bool{false, true} {
			// CapEdges must absorb any prefix of distinct concurrent edges
			// the decoded stream can build (at most one per update).
			cfg := Config{N: n, CapEdges: len(stream), ThreeHalves: threeHalves}
			seqM := New(cfg)
			for _, up := range stream {
				applyUpdate(seqM, up)
			}
			batM := New(cfg)
			for _, b := range graph.Chunk(stream, k) {
				st := applyBatch(batM, b)
				if st.Ops != len(b) {
					t.Fatalf("§4=%v: batch stats cover %d updates, batch has %d", threeHalves, st.Ops, len(b))
				}
			}

			want, got := seqM.MateTable(), batM.MateTable()
			for v := range want {
				if want[v] != got[v] {
					t.Fatalf("§4=%v, k=%d: mate of %d differs: %d vs %d", threeHalves, k, v, got[v], want[v])
				}
			}
			if !graph.IsMaximalMatching(g, got) {
				t.Fatalf("§4=%v, k=%d: batched matching not maximal over the final graph", threeHalves, k)
			}
			if threeHalves && graph.HasLength3AugPath(g, got) {
				t.Fatalf("k=%d: a length-3 augmenting path survived §4", k)
			}
			if err := batM.Validate(g); err != nil {
				t.Fatalf("§4=%v, k=%d: invariants broken after batches: %v", threeHalves, k, err)
			}
			if v := batM.Cluster().Stats().Violations; v != 0 {
				t.Fatalf("§4=%v, k=%d: %d cluster constraint violations", threeHalves, k, v)
			}

			// Worker-count replicas: the same chunks on sharded clusters
			// must reproduce the inline batches bit for bit — mate table
			// and cluster accounting — so every committed corpus seed
			// doubles as a determinism case.
			for _, parM := range replicas(cfg) {
				defer parM.Close()
				for _, b := range graph.Chunk(stream, k) {
					applyBatch(parM, b)
				}
				assertReplicaEquivalent(t, batM, parM)
			}
		}
	})
}
