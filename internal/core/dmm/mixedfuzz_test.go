package dmm

import (
	"testing"

	"dmpc/internal/graph"
)

// FuzzMixedEquivalence is the property-based equivalence harness for the
// §3 unified op pipeline: any mixed stream of updates and reads, any
// chunking, and every in-wave answer must be bit-identical to sequential
// replay at the same stream position — the snapshot-consistency contract
// of ApplyOps — with the final mate table matching edge for edge. The raw
// bytes decode through graph.FuzzOps with the well-formed update contract
// dmm's degree bookkeeping relies on; roughly half of every stream reads
// (OpMateOf and OpMatched), so queries land inside update waves, between
// solo cascades, and at chained-run boundaries.
//
// Run the full fuzzer with:
//
//	go test -run FuzzMixedEquivalence -fuzz FuzzMixedEquivalence ./internal/core/dmm
func FuzzMixedEquivalence(f *testing.F) {
	f.Add(byte(1), []byte("abcabdacd"))
	f.Add(byte(5), []byte("0120342516273869"))
	f.Add(byte(32), []byte("ABCABDABEACD?bcd?ace02460135"))
	// Disjoint matched pairs with interleaved reads of exactly those
	// vertices: reads conflict with the writes of their own pair only, so
	// they ride the widest waves the scheduler packs.
	f.Add(byte(16), []byte("\x00\x00\x01\x02\x00\x01\x00\x02\x03\x02\x02\x03\x00\x04\x05\x03\x04\x00"+
		"\x00\x06\x07\x02\x06\x00\x00\x08\x09\x03\x08\x00\x01\x00\x01\x02\x00\x01"))
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		const n = 20
		if len(data) > 300 { // 100 ops keeps a fuzz iteration fast
			data = data[:300]
		}
		ops := graph.FuzzOps(data, n, 1, []graph.OpKind{graph.OpMateOf, graph.OpMatched}, true)
		if len(ops) == 0 {
			t.Skip()
		}
		k := 1 + int(sel)%len(ops)

		// CapEdges must absorb any prefix of distinct concurrent edges the
		// decoded stream can build (at most one per update).
		capEdges := len(ops)

		// Sequential replay: one op at a time, reads through the
		// quiescence query paths at their exact stream positions.
		seqM := New(Config{N: n, CapEdges: capEdges})
		var want graph.Results
		for _, op := range ops {
			switch op.Kind {
			case graph.OpInsert:
				ins(seqM, op.U, op.V)
			case graph.OpDelete:
				del(seqM, op.U, op.V)
			case graph.OpMateOf:
				want = append(want, graph.Answer{Int: int64(mateOf(seqM, op.U))})
			case graph.OpMatched:
				want = append(want, graph.Answer{Bool: matched(seqM, op.U, op.V)})
			}
		}

		batM := New(Config{N: n, CapEdges: capEdges})
		g := graph.New(n)
		var got graph.Results
		for _, chunk := range graph.SplitOps(ops, k) {
			res, st := batM.ApplyOps(chunk)
			got = append(got, res...)
			u, q := graph.CountOps(chunk)
			if st.Ops != len(chunk) || st.Updates.Ops != u || st.Queries.Ops != q {
				t.Fatalf("mixed stats cover (%d,%d,%d), chunk has (%d,%d,%d)",
					st.Ops, st.Updates.Ops, st.Queries.Ops, len(chunk), u, q)
			}
			for _, op := range chunk {
				if !op.IsQuery() {
					g.Apply(op.Update())
				}
			}
		}

		if len(got) != len(want) {
			t.Fatalf("k=%d: %d answers, want %d", k, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("k=%d: query %d answered %+v in-wave, %+v sequentially", k, j, got[j], want[j])
			}
		}
		wantT, gotT := seqM.MateTable(), batM.MateTable()
		for v := range wantT {
			if wantT[v] != gotT[v] {
				t.Fatalf("k=%d: mate of %d differs: %d vs %d", k, v, gotT[v], wantT[v])
			}
		}
		if !graph.IsMaximalMatching(g, gotT) {
			t.Fatalf("k=%d: matching not maximal over the final graph", k)
		}
		if err := batM.Validate(g); err != nil {
			t.Fatalf("k=%d: invariants broken after mixed chunks: %v", k, err)
		}
		if v := batM.Cluster().Stats().Violations; v != 0 {
			t.Fatalf("k=%d: %d cluster constraint violations", k, v)
		}

		// Backend-equivalence replica: the same mixed chunks on the
		// goroutine-per-machine runtime must answer every in-wave query
		// identically and reproduce the mate table and accounting bit for
		// bit.
		parM := New(parallelConfig(Config{N: n, CapEdges: capEdges}))
		defer parM.Close()
		var pgot graph.Results
		for _, chunk := range graph.SplitOps(ops, k) {
			res, _ := parM.ApplyOps(chunk)
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
		assertBackendEquivalent(t, batM, parM)
	})
}
