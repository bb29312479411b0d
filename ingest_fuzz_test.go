package dmpc

import (
	"sort"
	"testing"

	"dmpc/internal/graph"
)

// The FuzzArrivalEquivalence harnesses pin the arrival-schedule
// independence of streaming ingestion: for ANY op stream and ANY
// inter-arrival gaps — hence any pattern of conflict, age, size and tail
// flushes — the Ingestor's answers and end state must be bit-identical
// to Apply on the full slice (which the per-algorithm
// FuzzMixedEquivalence suites pin to sequential replay in turn). The
// fuzzer decodes 4 bytes per arrival through graph.FuzzArrivals (3 op
// bytes + 1 gap byte); sel's low nibble picks the batch-size bound, bits
// 4-5 the age bound, and the top bit the structure variant.
//
// Run the full fuzzers with:
//
//	go test -run FuzzArrivalEquivalenceConn -fuzz FuzzArrivalEquivalenceConn .
//	go test -run FuzzArrivalEquivalenceDMM -fuzz FuzzArrivalEquivalenceDMM .

func FuzzArrivalEquivalenceConn(f *testing.F) {
	f.Add(byte(3), []byte("abcdabceacdebcde"))
	f.Add(byte(0x92), []byte("0123ABCD4567EFGH89abIJKL")) // MST, k=3, age 8
	f.Add(byte(0x21), []byte("aXYZaYZWbZWXbWXYcXZWfXYZgZWX"))
	f.Add(byte(0x7f), []byte("??????!!!!!!......______"))
	// MaxAge boundary: age 8 with an arrival at exactly t=8 — the
	// inclusive flushAge edge pinned by TestIngestorMaxAgeBoundary.
	f.Add(byte(0x12), []byte{2, 1, 2, 0, 2, 3, 4, 8, 0, 5, 6, 0, 2, 7, 8, 5})
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		const n = 24
		if len(data) > 480 { // 120 arrivals keeps one iteration fast
			data = data[:480]
		}
		arrivals := graph.FuzzArrivals(data, n, 20,
			[]graph.OpKind{graph.OpConnected, graph.OpComponentOf}, false)
		if len(arrivals) == 0 {
			t.Skip()
		}
		ops := make([]Op, len(arrivals))
		for i, a := range arrivals {
			ops[i] = a.Op
		}
		cfg := IngestorConfig{
			MaxBatch: 1 + int(sel&0x0f),
			MaxAge:   int64(sel>>4&0x3) * 8,
		}
		var ref, str Pipeline
		var refMST, strMST *MST
		var refCC, strCC *Connectivity
		if sel&0x80 != 0 {
			refMST, strMST = NewMST(n, 0, 160), NewMST(n, 0, 160)
			ref, str = refMST, strMST
		} else {
			refCC, strCC = NewConnectivity(n, 160), NewConnectivity(n, 160)
			ref, str = refCC, strCC
		}
		auditClaims(t, ref, str)

		want, _ := ref.Apply(ops)
		got, st := Ingest(str, arrivals, cfg)

		if len(got) != len(want) {
			t.Fatalf("sel=%#x: %d answers, want %d", sel, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("sel=%#x: query %d answered %+v streamed, %+v batched", sel, j, got[j], want[j])
			}
		}
		if st.Ops != len(ops) || len(st.Latencies) != len(ops) {
			t.Fatalf("sel=%#x: stats cover %d ops / %d latencies of %d", sel, st.Ops, len(st.Latencies), len(ops))
		}
		if sel&0x80 != 0 {
			wantF, gotF := sortedForest(refMST), sortedForest(strMST)
			if len(wantF) != len(gotF) {
				t.Fatalf("sel=%#x: forest sizes differ: %d vs %d", sel, len(gotF), len(wantF))
			}
			for i := range wantF {
				if wantF[i] != gotF[i] {
					t.Fatalf("sel=%#x: forest edge %d differs: %v vs %v", sel, i, gotF[i], wantF[i])
				}
			}
		} else {
			for v := 0; v < n; v++ {
				if refCC.CompOf(v) != strCC.CompOf(v) {
					t.Fatalf("sel=%#x: component of %d differs: %d vs %d",
						sel, v, strCC.CompOf(v), refCC.CompOf(v))
				}
			}
		}
		if v := str.Cluster().Stats().Violations; v != 0 {
			t.Fatalf("sel=%#x: %d cluster constraint violations", sel, v)
		}

		// Backend-equivalence replica: the same arrival schedule ingested
		// on the goroutine-per-machine backend must answer and account
		// bit-identically to the sim-backend streamed instance.
		popts := []Option{WithBackend(BackendParallel), WithWorkers(3)}
		var par Pipeline
		var parMST *MST
		var parCC *Connectivity
		if sel&0x80 != 0 {
			parMST = NewMST(n, 0, 160, popts...)
			par = parMST
		} else {
			parCC = NewConnectivity(n, 160, popts...)
			par = parCC
		}
		defer par.Close()
		pgot, _ := Ingest(par, arrivals, cfg)
		if len(pgot) != len(got) {
			t.Fatalf("sel=%#x: parallel replica answered %d queries, sim %d", sel, len(pgot), len(got))
		}
		for j := range got {
			if pgot[j] != got[j] {
				t.Fatalf("sel=%#x: parallel replica answered query %d %+v, sim %+v", sel, j, pgot[j], got[j])
			}
		}
		if sel&0x80 != 0 {
			wantF, gotF := sortedForest(strMST), sortedForest(parMST)
			if len(wantF) != len(gotF) {
				t.Fatalf("sel=%#x: parallel replica forest size %d, sim %d", sel, len(gotF), len(wantF))
			}
			for i := range wantF {
				if wantF[i] != gotF[i] {
					t.Fatalf("sel=%#x: parallel replica forest edge %d: %v, sim %v", sel, i, gotF[i], wantF[i])
				}
			}
		} else {
			for v := 0; v < n; v++ {
				if strCC.CompOf(v) != parCC.CompOf(v) {
					t.Fatalf("sel=%#x: parallel replica component of %d: %d, sim %d",
						sel, v, parCC.CompOf(v), strCC.CompOf(v))
				}
			}
		}
		assertSameAccounting(t, str.Cluster(), par.Cluster())
	})
}

// assertSameAccounting pins the backend determinism rule at the cluster
// level: accounting a backend must reproduce bit for bit regardless of
// execution strategy.
func assertSameAccounting(t *testing.T, sim, par *Cluster) {
	t.Helper()
	a, b := sim.Stats(), par.Stats()
	if a.Rounds != b.Rounds || a.Words != b.Words || a.Messages != b.Messages ||
		a.Violations != b.Violations || a.PeakMemWords != b.PeakMemWords {
		t.Fatalf("parallel replica accounting (rounds %d, words %d, msgs %d, viol %d, peak %d) diverges from sim (rounds %d, words %d, msgs %d, viol %d, peak %d)",
			b.Rounds, b.Words, b.Messages, b.Violations, b.PeakMemWords,
			a.Rounds, a.Words, a.Messages, a.Violations, a.PeakMemWords)
	}
}

// sortedForest canonicalizes a maintained spanning forest for
// comparison.
func sortedForest(m *MST) []graph.WEdge {
	edges := m.ForestEdges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		if edges[i].V != edges[j].V {
			return edges[i].V < edges[j].V
		}
		return edges[i].W < edges[j].W
	})
	return edges
}

func FuzzArrivalEquivalenceDMM(f *testing.F) {
	f.Add(byte(5), []byte("abcdabceacdebcde"))
	f.Add(byte(0x30), []byte("0123A5CD4567EFGH89abIJKL099a"))
	f.Add(byte(0x1c), []byte("aXYZbYZWcZWXdWXYeXZWfXYZgZWX"))
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		const n = 24
		if len(data) > 480 {
			data = data[:480]
		}
		// dmm's stream contract requires well-formed updates, so decode
		// through the filtered front-end (dropped ops drop their gaps).
		arrivals := graph.FuzzArrivals(data, n, 1,
			[]graph.OpKind{graph.OpMateOf, graph.OpMatched}, true)
		if len(arrivals) == 0 {
			t.Skip()
		}
		ops := make([]Op, len(arrivals))
		for i, a := range arrivals {
			ops[i] = a.Op
		}
		cfg := IngestorConfig{
			MaxBatch: 1 + int(sel&0x0f),
			MaxAge:   int64(sel>>4&0x3) * 8,
		}
		ref := NewMaximalMatching(n, 200)
		str := NewMaximalMatching(n, 200)

		want, _ := ref.Apply(ops)
		got, st := Ingest(str, arrivals, cfg)

		if len(got) != len(want) {
			t.Fatalf("sel=%#x: %d answers, want %d", sel, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("sel=%#x: query %d answered %+v streamed, %+v batched", sel, j, got[j], want[j])
			}
		}
		if st.Ops != len(ops) || len(st.Latencies) != len(ops) {
			t.Fatalf("sel=%#x: stats cover %d ops / %d latencies of %d", sel, st.Ops, len(st.Latencies), len(ops))
		}
		wantM, gotM := ref.MateTable(), str.MateTable()
		for v := range wantM {
			if wantM[v] != gotM[v] {
				t.Fatalf("sel=%#x: mate of %d differs: %d vs %d", sel, v, gotM[v], wantM[v])
			}
		}
		if v := str.Cluster().Stats().Violations; v != 0 {
			t.Fatalf("sel=%#x: %d cluster constraint violations", sel, v)
		}

		// Backend-equivalence replica: same arrivals, goroutine-per-machine
		// backend, bit-identical answers, mate table and accounting.
		par := NewMaximalMatching(n, 200, WithBackend(BackendParallel), WithWorkers(3))
		defer par.Close()
		pgot, _ := Ingest(par, arrivals, cfg)
		if len(pgot) != len(got) {
			t.Fatalf("sel=%#x: parallel replica answered %d queries, sim %d", sel, len(pgot), len(got))
		}
		for j := range got {
			if pgot[j] != got[j] {
				t.Fatalf("sel=%#x: parallel replica answered query %d %+v, sim %+v", sel, j, pgot[j], got[j])
			}
		}
		wantP, gotP := str.MateTable(), par.MateTable()
		for v := range wantP {
			if wantP[v] != gotP[v] {
				t.Fatalf("sel=%#x: parallel replica mate of %d: %d, sim %d", sel, v, gotP[v], wantP[v])
			}
		}
		assertSameAccounting(t, str.Cluster(), par.Cluster())
	})
}
