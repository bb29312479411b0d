package dyncon

import (
	"testing"

	"dmpc/internal/graph"
)

// FuzzBatchEquivalence is the property-based equivalence harness for the
// conflict-graph wave scheduler: any update sequence, any chunking, and the
// batched result must be identical to sequential replay — forest, component
// labels, and every distributed invariant. The fuzzer decodes the raw bytes
// through graph.FuzzStream (which deliberately keeps no-op updates in), the
// low bits of sel pick the chunk size, and the top bit selects CC vs exact
// MST so both protocol families stay under fire.
//
// Run the full fuzzer with:
//
//	go test -run FuzzBatchEquivalence -fuzz FuzzBatchEquivalence ./internal/core/dyncon
func FuzzBatchEquivalence(f *testing.F) {
	f.Add(byte(1), []byte("abcabdacd"))
	f.Add(byte(4), []byte("0120340516273809"))
	f.Add(byte(131), []byte("ABCABDABEACDBCE!bcd!bce")) // MST mode, deletes via odd selectors
	f.Add(byte(64), []byte("aXYaYZaZWaWXcXZcYW!XY!ZW")) // wide chunk over a cycle
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		const n = 24
		if len(data) > 360 { // 120 updates keeps a fuzz iteration fast
			data = data[:360]
		}
		stream := graph.FuzzStream(data, n, 20)
		if len(stream) == 0 {
			t.Skip()
		}
		cfg := Config{N: n, Mode: CC, ExpectedEdges: 160}
		if sel&0x80 != 0 {
			cfg.Mode = MST // Eps 0: exact MSF, comparable edge for edge
		}
		k := 1 + int(sel&0x7f)%len(stream)

		seqD := New(cfg)
		for _, up := range stream {
			applyUpdate(seqD, up)
		}

		batD := New(cfg)
		batD.AuditClaims(t.Fatalf) // every wave is formed from items equal to a full re-read
		for _, b := range graph.Chunk(stream, k) {
			_, st := batD.ApplyOps(graph.UpdateOps(b))
			if st.Updates.Ops != len(b) {
				t.Fatalf("batch stats cover %d updates, batch has %d", st.Updates.Ops, len(b))
			}
			covered := 0
			for _, w := range st.Waves {
				covered += w.Updates
			}
			if covered != st.Updates.Ops {
				t.Fatalf("waves cover %d of %d updates", covered, st.Updates.Ops)
			}
		}

		if err := batD.Validate(); err != nil {
			t.Fatalf("mode=%v k=%d: invariants broken after batches: %v", cfg.Mode, k, err)
		}
		wantF, gotF := forestKey(seqD), forestKey(batD)
		if len(wantF) != len(gotF) {
			t.Fatalf("mode=%v k=%d: forest sizes differ: %d vs %d", cfg.Mode, k, len(gotF), len(wantF))
		}
		for i := range wantF {
			if wantF[i] != gotF[i] {
				t.Fatalf("mode=%v k=%d: forest edge %d differs: %v vs %v", cfg.Mode, k, i, gotF[i], wantF[i])
			}
		}
		for v := 0; v < n; v++ {
			if seqD.CompOf(v) != batD.CompOf(v) {
				t.Fatalf("mode=%v k=%d: component of %d differs: %d vs %d",
					cfg.Mode, k, v, batD.CompOf(v), seqD.CompOf(v))
			}
		}
		if v := batD.Cluster().Stats().Violations; v != 0 {
			t.Fatalf("mode=%v k=%d: %d cluster constraint violations", cfg.Mode, k, v)
		}

		// Backend-equivalence replica: the same chunks on the goroutine-
		// per-machine runtime must reproduce the sim batches bit for bit —
		// state, invariants and cluster accounting — so every committed
		// corpus seed doubles as a backend determinism case.
		parD := New(parallelConfig(cfg))
		defer parD.Close()
		for _, b := range graph.Chunk(stream, k) {
			applyBatch(parD, b)
		}
		assertBackendEquivalent(t, batD, parD)
	})
}
