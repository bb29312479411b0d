package dyncon

import (
	"testing"

	"dmpc/internal/graph"
)

// FuzzMixedEquivalence is the property-based equivalence harness for the
// unified op pipeline: any mixed stream of updates and reads, any
// chunking, and every in-wave query answer must be bit-identical to
// sequential replay at the same stream position — the snapshot-consistency
// contract of ApplyOps — with the final forest, component labels and
// distributed invariants matching as well. The fuzzer decodes the raw
// bytes through graph.FuzzOps (roughly half of every stream reads,
// OpConnected and OpComponentOf), the low bits of sel pick the chunk
// size, and the top bit selects CC vs exact MST.
//
// Run the full fuzzer with:
//
//	go test -run FuzzMixedEquivalence -fuzz FuzzMixedEquivalence ./internal/core/dyncon
func FuzzMixedEquivalence(f *testing.F) {
	f.Add(byte(1), []byte("abcabdacd"))
	f.Add(byte(4), []byte("0120342516273869"))
	f.Add(byte(131), []byte("ABCABDABEACDBCE?bcd?bce")) // MST mode, reads via sel&3>=2
	f.Add(byte(64), []byte("aXYaYZbZWbWXcXZcYWfXYgZW")) // wide chunk, mixed selectors
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		const n = 24
		if len(data) > 360 { // 120 ops keeps a fuzz iteration fast
			data = data[:360]
		}
		ops := graph.FuzzOps(data, n, 20, []graph.OpKind{graph.OpConnected, graph.OpComponentOf}, false)
		if len(ops) == 0 {
			t.Skip()
		}
		cfg := Config{N: n, Mode: CC, ExpectedEdges: 160}
		if sel&0x80 != 0 {
			cfg.Mode = MST // Eps 0: exact MSF, comparable edge for edge
		}
		k := 1 + int(sel&0x7f)%len(ops)

		// Sequential replay: one op at a time, queries through the
		// quiescence read paths at their exact stream positions.
		seqD := New(cfg)
		var want graph.Results
		for _, op := range ops {
			switch op.Kind {
			case graph.OpInsert:
				ins(seqD, op.U, op.V, op.W)
			case graph.OpDelete:
				del(seqD, op.U, op.V)
			case graph.OpConnected:
				want = append(want, graph.Answer{Bool: connected(seqD, op.U, op.V)})
			case graph.OpComponentOf:
				want = append(want, graph.Answer{Int: componentOf(seqD, op.U)})
			}
		}

		batD := New(cfg)
		batD.AuditClaims(t.Fatalf) // every wave is formed from items equal to a full re-read
		var got graph.Results
		for _, chunk := range graph.SplitOps(ops, k) {
			res, st := batD.ApplyOps(chunk)
			got = append(got, res...)
			u, q := graph.CountOps(chunk)
			if st.Ops != len(chunk) || st.Updates.Ops != u || st.Queries.Ops != q {
				t.Fatalf("mixed stats cover (%d,%d,%d), chunk has (%d,%d,%d)",
					st.Ops, st.Updates.Ops, st.Queries.Ops, len(chunk), u, q)
			}
			cu, cq := 0, 0
			for _, w := range st.Waves {
				cu += w.Updates
				cq += w.Queries
			}
			if cu != u || cq != q {
				t.Fatalf("waves cover %d updates + %d reads of %d + %d", cu, cq, u, q)
			}
		}

		if len(got) != len(want) {
			t.Fatalf("mode=%v k=%d: %d answers, want %d", cfg.Mode, k, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("mode=%v k=%d: query %d answered %+v in-wave, %+v sequentially",
					cfg.Mode, k, j, got[j], want[j])
			}
		}
		if err := batD.Validate(); err != nil {
			t.Fatalf("mode=%v k=%d: invariants broken after mixed chunks: %v", cfg.Mode, k, err)
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

		// Backend-equivalence replica: the same mixed chunks on the
		// goroutine-per-machine runtime must answer every in-wave query
		// identically and reproduce state and accounting bit for bit.
		parD := New(parallelConfig(cfg))
		defer parD.Close()
		var pgot graph.Results
		for _, chunk := range graph.SplitOps(ops, k) {
			res, _ := parD.ApplyOps(chunk)
			pgot = append(pgot, res...)
		}
		if len(pgot) != len(got) {
			t.Fatalf("parallel replica answered %d queries, sim %d", len(pgot), len(got))
		}
		for j := range got {
			if pgot[j] != got[j] {
				t.Fatalf("parallel replica answered query %d %+v, sim %+v", j, pgot[j], got[j])
			}
		}
		assertBackendEquivalent(t, batD, parD)
	})
}
