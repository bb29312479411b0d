package dmpc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dmpc/internal/graph"
)

// replay runs ops through the pipeline one op per Apply window — the
// sequential replica the batched and mixed runs are compared against —
// returning the answers and the worst window's rounds.
func replay(p Pipeline, ops ...Op) (res Results, worstRounds int) {
	for _, op := range ops {
		r, st := p.Apply([]Op{op})
		res = append(res, r...)
		worstRounds = max(worstRounds, st.Rounds())
	}
	return res, worstRounds
}

// TestFacadeConnectivity drives the public API against the oracle.
func TestFacadeConnectivity(t *testing.T) {
	const n = 40
	cc := NewConnectivity(n, 200)
	g := NewGraph(n)
	rng := rand.New(rand.NewSource(1))
	for _, up := range graph.RandomStream(n, 250, 0.55, 1, rng) {
		replay(cc, OpOf(up))
		g.Apply(up)
	}
	comp := graph.Components(g)
	for u := 0; u < n; u += 3 {
		for v := u + 1; v < n; v += 4 {
			if res, _ := replay(cc, QConnected(u, v)); res[0].Bool != (comp[u] == comp[v]) {
				t.Fatalf("QConnected(%d,%d) mismatch", u, v)
			}
		}
	}
	mine := make([]int, n)
	for v := 0; v < n; v++ {
		res, _ := replay(cc, QComponentOf(v))
		mine[v] = int(res[0].Int)
	}
	if !graph.SameLabeling(mine, comp) {
		t.Fatal("component labels do not partition like the oracle")
	}
	if cc.Cluster().Stats().Rounds == 0 {
		t.Fatal("no rounds accounted")
	}
}

func TestFacadeMST(t *testing.T) {
	const n = 24
	mst := NewMST(n, 0, 150)
	g := NewGraph(n)
	rng := rand.New(rand.NewSource(2))
	for _, up := range graph.RandomStream(n, 180, 0.6, 50, rng) {
		replay(mst, OpOf(up))
		g.Apply(up)
		if mst.Weight() != graph.MSFWeight(g) {
			t.Fatalf("after %v: weight %d want %d", up, mst.Weight(), graph.MSFWeight(g))
		}
	}
	var plain []graph.Edge
	for _, e := range mst.ForestEdges() {
		plain = append(plain, graph.Edge{U: e.U, V: e.V})
	}
	if !graph.IsSpanningForest(g, plain) {
		t.Fatal("forest edges are not a spanning forest")
	}
}

func TestFacadeMatchings(t *testing.T) {
	const n = 20
	mm := NewMaximalMatching(n, 120)
	m32 := NewThreeHalvesMatching(n, 120)
	am := NewAlmostMaximalMatching(n, 0.2, 7)
	g := NewGraph(n)
	rng := rand.New(rand.NewSource(3))
	for _, up := range graph.RandomStream(n, 200, 0.55, 1, rng) {
		replay(mm, OpOf(up))
		replay(m32, OpOf(up))
		// §6 through its per-update cycle, the one driver besides Apply.
		if up.Op == Insert {
			am.Insert(up.U, up.V)
		} else {
			am.Delete(up.U, up.V)
		}
		g.Apply(up)
		if !graph.IsMaximalMatching(g, mm.MateTable()) {
			t.Fatalf("after %v: §3 matching not maximal", up)
		}
		mt := m32.MateTable()
		if !graph.IsMaximalMatching(g, mt) || graph.HasLength3AugPath(g, mt) {
			t.Fatalf("after %v: §4 certificate broken", up)
		}
		if !graph.IsMatching(g, am.MateTable()) {
			t.Fatalf("after %v: §6 matching invalid", up)
		}
	}
}

// TestWorstCaseRoundsFlatAcrossSizes is the headline Table 1 property on
// the public API: worst-case rounds per update do not grow with n for any
// of the O(1)-round algorithms.
func TestWorstCaseRoundsFlatAcrossSizes(t *testing.T) {
	worstAt := func(n int) (cc, mst int) {
		c := NewConnectivity(n, 5*n)
		m := NewMST(n, 0.25, 5*n)
		rng := rand.New(rand.NewSource(9))
		for _, up := range graph.RandomStream(n, 200, 0.55, 30, rng) {
			_, r1 := replay(c, OpOf(up))
			_, r2 := replay(m, OpOf(up))
			cc, mst = max(cc, r1), max(mst, r2)
		}
		return cc, mst
	}
	cc32, mst32 := worstAt(32)
	cc256, mst256 := worstAt(256)
	if cc256 > cc32+3 {
		t.Fatalf("CC worst rounds grew: %d -> %d", cc32, cc256)
	}
	if mst256 > mst32+3 {
		t.Fatalf("MST worst rounds grew: %d -> %d", mst32, mst256)
	}
}

// TestBatchPipeline drives write-only windows through the public API: batch
// application must match sequential application exactly for connectivity
// and maximal matching, and the amortized rounds per update at k=64 must
// be strictly lower than at k=1 — the batch-dynamic headline.
func TestBatchPipeline(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(21))
	stream := graph.RandomStream(n, 256, 0.55, 1, rng)

	amortized := func(k int) (cc, mm float64) {
		c := NewConnectivity(n, 5*n)
		m := NewMaximalMatching(n, 5*n)
		var ccR, mmR, upd int
		for _, b := range Chunk(stream, k) {
			_, cst := c.Apply(UpdateOps(b))
			_, mst := m.Apply(UpdateOps(b))
			ccR += cst.Updates.Rounds
			mmR += mst.Updates.Rounds
			upd += len(b)
		}
		if k == 64 {
			// Pin equivalence against per-update application.
			seqC := NewConnectivity(n, 5*n)
			seqM := NewMaximalMatching(n, 5*n)
			replay(seqC, UpdateOps(stream)...)
			replay(seqM, UpdateOps(stream)...)
			for v := 0; v < n; v++ {
				got, _ := replay(c, QComponentOf(v))
				want, _ := replay(seqC, QComponentOf(v))
				if got[0] != want[0] {
					t.Fatalf("component of %d differs between batch and sequential", v)
				}
			}
			want, got := seqM.MateTable(), m.MateTable()
			for v := range want {
				if want[v] != got[v] {
					t.Fatalf("mate of %d differs between batch and sequential", v)
				}
			}
		}
		return float64(ccR) / float64(upd), float64(mmR) / float64(upd)
	}

	cc1, mm1 := amortized(1)
	cc64, mm64 := amortized(64)
	if cc64 >= cc1 {
		t.Fatalf("connectivity amortized rounds/update did not drop: k=1 %.2f, k=64 %.2f", cc1, cc64)
	}
	if mm64 >= mm1 {
		t.Fatalf("matching amortized rounds/update did not drop: k=1 %.2f, k=64 %.2f", mm1, mm64)
	}
}

// TestQueryPipeline drives read-only windows through the public API:
// connectivity and mate reads agree with the oracles, a k=64 connectivity
// window amortizes under 0.5 rounds/query (vs ~2 for a lone read), and
// interleaving read windows between write windows leaves the write
// accounting untouched.
func TestQueryPipeline(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(33))
	stream := graph.RandomStream(n, 256, 0.55, 1, rng)
	connected := func(pairs []graph.Pair) []Op {
		ops := make([]Op, len(pairs))
		for i, p := range pairs {
			ops[i] = QConnected(p.U, p.V)
		}
		return ops
	}

	cc := NewConnectivity(n, 5*n)
	mm := NewMaximalMatching(n, 5*n)
	g := NewGraph(n)
	qrng := rand.New(rand.NewSource(34))
	var got []MixedStats
	for _, b := range Chunk(stream, 32) {
		_, wst := cc.Apply(UpdateOps(b))
		got = append(got, wst)
		mm.Apply(UpdateOps(b))
		b.Apply(g)
		// A read burst between write batches.
		pairs := graph.RandomPairs(n, 16, qrng)
		comp := graph.Components(g)
		res, _ := cc.Apply(connected(pairs))
		for i, a := range res {
			if a.Bool != (comp[pairs[i].U] == comp[pairs[i].V]) {
				t.Fatalf("QConnected(%v) wrong at %d", pairs[i], i)
			}
		}
		oracle := mm.MateTable()
		vs := []int{0, n / 2, n - 1}
		res, _ = mm.Apply([]Op{QMateOf(vs[0]), QMateOf(vs[1]), QMateOf(vs[2])})
		for i, a := range res {
			if int(a.Int) != oracle[vs[i]] {
				t.Fatalf("QMateOf[%d] = %d, oracle %d", vs[i], a.Int, oracle[vs[i]])
			}
		}
	}

	// Amortization on the public API: one k=64 window costs 2 rounds.
	_, st := cc.Apply(connected(graph.RandomPairs(n, 64, qrng)))
	if last := st.Queries; last.Ops != 64 || last.RoundsPerOp() >= 0.5 {
		t.Fatalf("k=64 window %+v, want < 0.5 amortized rounds/query", last)
	}

	// The interleaved reads must not have perturbed write accounting.
	quiet := NewConnectivity(n, 5*n)
	for i, b := range Chunk(stream, 32) {
		_, wst := quiet.Apply(UpdateOps(b))
		if !got[i].Equal(wst) {
			t.Fatalf("batch %d accounting differs with reads interleaved: %+v vs %+v", i, got[i], wst)
		}
	}
}

// TestPipelineMixedConnectivity drives the unified front door on a mixed
// stream: in-wave answers must equal sequential replay at the same stream
// positions, the final state must match, and the mixed window must
// partition its rounds between the two halves.
func TestPipelineMixedConnectivity(t *testing.T) {
	const n = 48
	rng := rand.New(rand.NewSource(21))
	updates := graph.RandomStream(n, 240, 0.55, 1, rng)
	ops := graph.MixedStream(updates, 0.4, func(r *rand.Rand) Op {
		if r.Intn(3) == 0 {
			return QComponentOf(r.Intn(n))
		}
		return QConnected(r.Intn(n), r.Intn(n))
	}, rng)

	ref := NewConnectivity(n, 5*n)
	want, _ := replay(ref, ops...)

	cc := NewConnectivity(n, 5*n)
	var got Results
	for _, chunk := range SplitOps(ops, 32) {
		res, st := cc.Apply(chunk)
		got = append(got, res...)
		u, q := CountOps(chunk)
		if st.Ops != len(chunk) || st.Updates.Ops != u || st.Queries.Ops != q {
			t.Fatalf("window shape (%d,%d,%d) for chunk (%d,%d,%d)",
				st.Ops, st.Updates.Ops, st.Queries.Ops, len(chunk), u, q)
		}
		if st.Updates.Rounds+st.Queries.Rounds != st.Rounds() {
			t.Fatalf("halves do not partition the window: %+v", st)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	for v := 0; v < n; v++ {
		if cc.CompOf(v) != ref.CompOf(v) {
			t.Fatalf("component of %d diverged", v)
		}
	}
}

// TestPipelineMixedMatching drives the §3 pipeline on a mixed stream with
// mate and matched reads, against sequential replay.
func TestPipelineMixedMatching(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(22))
	updates := graph.RandomStream(n, 200, 0.6, 1, rng)
	ops := graph.MixedStream(updates, 0.5, func(r *rand.Rand) Op {
		if r.Intn(3) == 0 {
			return QMatched(r.Intn(n), r.Intn(n))
		}
		return QMateOf(r.Intn(n))
	}, rng)

	ref := NewMaximalMatching(n, len(updates))
	want, _ := replay(ref, ops...)

	mm := NewMaximalMatching(n, len(updates))
	var got Results
	for _, chunk := range SplitOps(ops, 24) {
		res, _ := mm.Apply(chunk)
		got = append(got, res...)
	}
	if len(got) != len(want) {
		t.Fatalf("%d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	wantT, gotT := ref.MateTable(), mm.MateTable()
	for v := range wantT {
		if wantT[v] != gotT[v] {
			t.Fatalf("mate of %d diverged: %d vs %d", v, gotT[v], wantT[v])
		}
	}
}

// TestPipelineMixedAlmostMaximal drives the §6 pipeline on a mixed stream.
// amm's batch mode does not promise bit-equivalence with sequential
// replay, so the pin is internal consistency: every in-wave answer must
// agree with the authoritative matching at its stream position, checked
// by re-asking the structure's oracle right after each chunk for the
// chunk-final reads.
func TestPipelineMixedAlmostMaximal(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(23))
	updates := graph.RandomStream(n, 160, 0.65, 1, rng)

	am := NewAlmostMaximalMatching(n, 0.5, 9)
	g := NewGraph(n)
	for _, chunk := range Chunk(updates, 20) {
		ops := UpdateOps(chunk)
		// Tail reads observe the post-chunk state, so the oracle can
		// check them exactly.
		probes := []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)}
		for _, v := range probes {
			ops = append(ops, QMateOf(v))
		}
		res, st := am.Apply(ops)
		u, q := CountOps(ops)
		if st.Updates.Ops != u || st.Queries.Ops != q {
			t.Fatalf("window shape %+v for (%d,%d)", st, u, q)
		}
		for _, up := range chunk {
			g.Apply(up)
		}
		table := am.MateTable()
		for i, v := range probes {
			if int(res[i].Int) != table[v] {
				t.Fatalf("read of %d answered %d, authoritative mate is %d", v, res[i].Int, table[v])
			}
		}
	}
	if !graph.IsMatching(g, am.MateTable()) {
		t.Fatal("final matching invalid over the final graph")
	}
}

// TestPipelineRejectsForeignKinds pins the typed-kind contract: a
// structure panics on a query kind it cannot answer instead of returning
// garbage.
func TestPipelineRejectsForeignKinds(t *testing.T) {
	wantPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	cc := NewConnectivity(8, 32)
	wantPanic("MateOf on Connectivity", func() { cc.Apply([]Op{QMateOf(1)}) })
	mm := NewMaximalMatching(8, 32)
	wantPanic("Connected on MaximalMatching", func() { mm.Apply([]Op{QConnected(1, 2)}) })
}

// TestOutOfRangeVertexRejected pins the vertex-range contract of the front
// doors: Apply on every structure and Ingestor.Push over a claims-admitting
// pipeline refuse an op naming a vertex outside [0, n) with a panic that
// names the op, the vertex and n, before any op of the call runs or the
// arrival reaches the forming set.
func TestOutOfRangeVertexRejected(t *testing.T) {
	const n = 8
	refused := func(t *testing.T, op Op, bad int, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg := fmt.Sprint(recover())
			if want := fmt.Sprintf("op %v names vertex %d outside [0, %d)", op, bad, n); !strings.Contains(msg, want) {
				t.Fatalf("panic %q, want one containing %q", msg, want)
			}
		}()
		f()
	}
	connected := func(p Pipeline) bool { r, _ := p.Apply([]Op{QConnected(0, 1)}); return r[0].Bool }
	mated := func(p Pipeline) bool { r, _ := p.Apply([]Op{QMateOf(0)}); return r[0].Int != -1 }
	for _, tc := range []struct {
		name string
		mk   func() Pipeline
		read func(v int) Op
		// joined reports whether Ins(0, 1) landed.
		joined func(Pipeline) bool
	}{
		{"MaximalMatching", func() Pipeline { return NewMaximalMatching(n, 4*n) }, QMateOf, mated},
		{"ThreeHalvesMatching", func() Pipeline { return NewThreeHalvesMatching(n, 4*n) }, QMateOf, mated},
		{"Connectivity", func() Pipeline { return NewConnectivity(n, 4*n) }, QComponentOf, connected},
		{"MST", func() Pipeline { return NewMST(n, 0.25, 4*n) }, QComponentOf, connected},
		{"AlmostMaximalMatching", func() Pipeline { return NewAlmostMaximalMatching(n, 0.5, 1) }, QMateOf, mated},
	} {
		for _, bad := range []int{n, -1} {
			t.Run(fmt.Sprintf("%s/Apply/%d", tc.name, bad), func(t *testing.T) {
				p := tc.mk()
				defer p.Close()
				refused(t, Ins(0, bad), bad, func() { p.Apply([]Op{Ins(0, 1), Ins(0, bad)}) })
				refused(t, tc.read(bad), bad, func() { p.Apply([]Op{tc.read(bad)}) })
				if tc.joined(p) {
					t.Fatal("the valid op ahead of the refused one ran")
				}
			})
		}
	}
	for _, bad := range []int{n, -1} {
		t.Run(fmt.Sprintf("AlmostMaximalMatching/Insert/%d", bad), func(t *testing.T) {
			am := NewAlmostMaximalMatching(n, 0.5, 1)
			defer am.Close()
			refused(t, Ins(bad, 0), bad, func() { am.Insert(bad, 0) })
			refused(t, Del(0, bad), bad, func() { am.Delete(0, bad) })
		})
		t.Run(fmt.Sprintf("Connectivity/Push/%d", bad), func(t *testing.T) {
			cc := NewConnectivity(n, 4*n)
			defer cc.Close()
			ing := NewIngestor(IngestorConfig{Pipeline: cc})
			ing.Push(Arrival{At: 0, Op: Ins(0, 1)})
			refused(t, QConnected(bad, 0), bad, func() { ing.Push(Arrival{At: 1, Op: QConnected(bad, 0)}) })
			if ing.Pending() != 1 {
				t.Fatalf("%d ops forming after the refusal, want 1", ing.Pending())
			}
			ing.Push(Arrival{At: 2, Op: QConnected(0, 1)})
			if res, st := ing.Close(); len(res) != 1 || !res[0].Bool || st.Ops != 2 {
				t.Fatalf("stream after the refusal answered %+v over %d ops, want [connected] over 2", res, st.Ops)
			}
		})
	}
}
