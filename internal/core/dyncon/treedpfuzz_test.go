package dyncon

import (
	"testing"

	"dmpc/internal/graph"
	"dmpc/internal/treedp"
)

// forestAdj rebuilds a plain adjacency list from the driver's maintained
// spanning forest — the input the treedp.Oracle walks. DP answers are
// forest-relative (the subtree and path are those of the maintained
// forest), so the oracle must read the same forest the shards hold.
func forestAdj(d *D, n int) [][]int {
	adj := make([][]int, n)
	for _, e := range d.ForestEdges() {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	return adj
}

// FuzzTreeDPEquivalence is the property-based harness for the tree-DP
// subsystem: any mixed stream of links, cuts, weight writes and DP
// queries, at any chunking, must answer bit-identically to sequential
// replay AND to the tour-free treedp.Oracle walking the maintained
// forest. The double check matters: sequential-vs-chunked agreement pins
// the wave scheduling and shift-repair bookkeeping, while oracle
// agreement pins the interval algebra itself (Span containment, OnPath,
// anchor maintenance) against textbook BFS semantics, so the two sides
// cannot share a bug. A parallel-backend replica then reruns the chunked
// stream and must reproduce every answer, the forest, the weight records
// and the round/word accounting exactly.
//
// Run the full fuzzer with:
//
//	go test -run FuzzTreeDPEquivalence -fuzz FuzzTreeDPEquivalence ./internal/core/dyncon
func FuzzTreeDPEquivalence(f *testing.F) {
	// A grown path with weights, then every query kind.
	f.Add(byte(3), []byte("\x00\x01\x02\x00\x02\x03\x00\x03\x04\x02\x02\x09\x02\x03\x07\x02\x04\x14\x06\x02\x04\x0a\x01\x04\x0e\x03\x00\x12\x01\x04"))
	// Cut-then-requery: sever the path mid-way, then ask across the cut
	// (whole-component span, disconnected path, u==r subtree).
	f.Add(byte(1), []byte("\x00\x01\x02\x00\x02\x03\x00\x03\x04\x02\x02\x09\x02\x03\x07\x02\x04\x14\x01\x02\x03\x06\x02\x04\x0a\x01\x04\x0a\x01\x02\x0e\x04\x00\x06\x04\x04"))
	// Weight-update-on-just-linked-edge: a singleton gets a weight (anchor
	// 0), is immediately linked (named-endpoint healing), then queried;
	// plus trivial-path and self-rooted-subtree fast paths.
	f.Add(byte(0x85), []byte("\x02\x05\xc8\x00\x05\x06\x02\x06\x06\x06\x06\x05\x00\x06\x07\x02\x07\x13\x0a\x05\x07\x0e\x05\x00\x0a\x05\x05\x06\x05\x05"))
	// Generic churn, MST mode.
	f.Add(byte(0x90), []byte("abcabdabeacdbce?bcd?bceaXYaYZbZW"))
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		const n = 24
		if len(data) > 360 { // 120 ops keeps a fuzz iteration fast
			data = data[:360]
		}
		qkinds := []graph.OpKind{
			graph.OpSetWeight, graph.OpSubtreeSum, graph.OpPathSum,
			graph.OpTreeTop, graph.OpConnected,
		}
		ops := graph.FuzzOps(data, n, 20, qkinds, false)
		if len(ops) == 0 {
			t.Skip()
		}
		cfg := Config{N: n, Mode: CC, ExpectedEdges: 160}
		if sel&0x80 != 0 {
			cfg.Mode = MST
		}
		k := 1 + int(sel&0x7f)%len(ops)

		// Sequential replay: singleton ApplyOps per op keeps every seq and
		// query id at its exact stream position (the bit-identity contract
		// with the chunked run below) while still exercising the full DP
		// orchestration one op at a time. Each DP answer is independently
		// checked against the oracle over the forest as maintained so far.
		seqD := New(cfg)
		oracle := treedp.NewOracle(n)
		var want graph.Results
		for _, op := range ops {
			res, _ := seqD.ApplyOps([]graph.Op{op})
			if op.Kind == graph.OpSetWeight {
				oracle.SetWeight(op.U, int64(op.W))
			}
			if !op.IsQuery() {
				continue
			}
			want = append(want, res[0])
			var exp int64
			switch op.Kind {
			case graph.OpSubtreeSum:
				exp = oracle.SubtreeSum(forestAdj(seqD, n), op.V, op.U)
			case graph.OpPathSum:
				exp = oracle.PathSum(forestAdj(seqD, n), op.U, op.V)
			case graph.OpTreeTop:
				exp = oracle.TreeTop(forestAdj(seqD, n), op.U)
			default: // OpConnected rides along for interleaving only
				continue
			}
			if res[0].Int != exp {
				t.Fatalf("mode=%v: %v answered %d, oracle says %d", cfg.Mode, op, res[0].Int, exp)
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
			if sw, bw := seqD.WeightOf(v), batD.WeightOf(v); sw != bw {
				t.Fatalf("mode=%v k=%d: weight of %d differs: %d vs %d", cfg.Mode, k, v, bw, sw)
			}
		}
		if v := batD.Cluster().Stats().Violations; v != 0 {
			t.Fatalf("mode=%v k=%d: %d cluster constraint violations", cfg.Mode, k, v)
		}

		// Backend-equivalence replica: the same chunks on the goroutine-
		// per-machine runtime must answer identically and reproduce the
		// forest, weight records and accounting bit for bit.
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
		for v := 0; v < n; v++ {
			if parD.WeightOf(v) != batD.WeightOf(v) {
				t.Fatalf("parallel replica weight of %d is %d, sim %d", v, parD.WeightOf(v), batD.WeightOf(v))
			}
		}
		assertBackendEquivalent(t, batD, parD)
	})
}
