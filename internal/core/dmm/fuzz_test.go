package dmm

import (
	"testing"

	"dmpc/internal/graph"
)

// FuzzBatchEquivalence is the property-based equivalence harness for the §3
// batch pipeline: any update sequence, any chunking, and the wave-scheduled
// batch (phase-parallel flows for endpoint-disjoint updates, chained runs
// for serial stretches) must produce the exact matching of sequential
// replay (dmm's case analysis is deterministic, so equality is
// edge-for-edge). The raw bytes decode through graph.FuzzStreamWellFormed:
// dmm's degree bookkeeping assumes the standard well-formed stream contract
// (no duplicate inserts, no deletes of absent edges — see the startInsert
// comment), so the decoder enforces it while redirecting bogus deletes onto
// present edges to keep delete coverage high.
//
// The seeded corpus mixes conflict-heavy streams with endpoint-disjoint-
// heavy ones (pairs (0,1),(2,3),... inserted, re-covered, deleted): the
// latter drive the widest waves through the parallel path, the regime the
// scheduler exists for.
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

		// CapEdges must absorb any prefix of distinct concurrent edges the
		// decoded stream can build (at most one per update).
		capEdges := len(stream)
		seqM := New(Config{N: n, CapEdges: capEdges})
		g := graph.New(n)
		for _, up := range stream {
			applyUpdate(seqM, up)
		}
		batM := New(Config{N: n, CapEdges: capEdges})
		for _, b := range graph.Chunk(stream, k) {
			st := applyBatch(batM, b)
			if st.Ops != len(b) {
				t.Fatalf("batch stats cover %d updates, batch has %d", st.Ops, len(b))
			}
			b.Apply(g)
		}

		want, got := seqM.MateTable(), batM.MateTable()
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("k=%d: mate of %d differs: %d vs %d", k, v, got[v], want[v])
			}
		}
		if !graph.IsMaximalMatching(g, got) {
			t.Fatalf("k=%d: batched matching not maximal over the final graph", k)
		}
		if err := batM.Validate(g); err != nil {
			t.Fatalf("k=%d: invariants broken after batches: %v", k, err)
		}
		if v := batM.Cluster().Stats().Violations; v != 0 {
			t.Fatalf("k=%d: %d cluster constraint violations", k, v)
		}

		// Backend-equivalence replica: the same chunks on the goroutine-
		// per-machine runtime must reproduce the sim batches bit for bit —
		// mate table and cluster accounting — so every committed corpus
		// seed doubles as a backend determinism case.
		parM := New(parallelConfig(Config{N: n, CapEdges: capEdges}))
		defer parM.Close()
		for _, b := range graph.Chunk(stream, k) {
			applyBatch(parM, b)
		}
		assertBackendEquivalent(t, batM, parM)
	})
}
