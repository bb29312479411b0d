package dyncon

import (
	"math/rand"
	"strings"
	"testing"

	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// TestQueryWindowRegression pins the headline bugfix of the query pipeline:
// interleaving read windows into a batched update workload leaves every
// update window bit-identical to the query-free run — query rounds are
// charged to the read windows' query halves instead of leaking into
// whatever update window is nearby, and no query disappears from per-op
// accounting.
func TestQueryWindowRegression(t *testing.T) {
	const n = 40
	mkStream := func() []graph.Update {
		rng := rand.New(rand.NewSource(17))
		return graph.RandomStream(n, 160, 0.55, 1, rng)
	}

	run := func(withQueries bool) (writes, reads []mpc.MixedStats) {
		d := New(Config{N: n, Mode: CC, ExpectedEdges: 200})
		qrng := rand.New(rand.NewSource(23))
		for _, b := range graph.Chunk(mkStream(), 8) {
			_, w := d.ApplyOps(graph.UpdateOps(b))
			writes = append(writes, w)
			if !withQueries {
				continue
			}
			pairs := graph.RandomPairs(n, 4, qrng)
			batch := make([]graph.Op, len(pairs))
			for i, p := range pairs {
				batch[i] = graph.OpQConnected(p.U, p.V)
			}
			for _, ops := range [][]graph.Op{
				batch,
				{graph.OpQConnected(pairs[0].U, pairs[0].V)},
				{graph.OpQComponentOf(pairs[0].U)},
			} {
				_, st := d.ApplyOps(ops)
				reads = append(reads, st)
			}
		}
		return writes, reads
	}

	want, none := run(false)
	got, reads := run(true)
	if len(none) != 0 {
		t.Fatal("query-free run produced read windows")
	}
	if len(want) != len(got) {
		t.Fatalf("update window count differs: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("batch %d stats differ with queries interleaved: %+v vs %+v", i, got[i], want[i])
		}
	}
	var counted int
	for _, st := range reads {
		if st.Queries.Rounds == 0 || st.Updates.Rounds != 0 {
			t.Fatalf("read window misattributed its rounds: %+v", st)
		}
		counted += st.Queries.Ops
	}
	if want := len(reads) / 3 * 6; counted != want {
		t.Fatalf("%d queries issued, %d accounted in query halves", want, counted)
	}
}

// TestQueryWithInFlightUpdates covers the old fixed Run(8) budget panic:
// a read window opened while update messages are still in flight drives
// the cluster to quiescence (64-round guard) and answers, instead of dying
// with a bare "query result missing".
func TestQueryWithInFlightUpdates(t *testing.T) {
	d := New(Config{N: 16, ExpectedEdges: 64})
	ins(d, 0, 1, 1)
	ins(d, 2, 3, 1)

	// Inject an update without driving the cluster, as a wave injection
	// does, then query an unrelated pair while it is in flight.
	d.seq++
	d.inject(graph.Update{Op: graph.Insert, U: 4, V: 5, W: 1}, d.seq)
	if !connected(d, 0, 1) || connected(d, 0, 2) {
		t.Fatal("query answered wrong while an update was in flight")
	}
	// The in-flight update must have completed during the query drain.
	if !connected(d, 4, 5) {
		t.Fatal("in-flight update was lost")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("invariants broken: %v", err)
	}
}

// TestConnectedBatchEquivalenceAndAmortization pins both halves of the
// read-only window contract: answers equal the sequential oracle, and 64
// connectivity reads share one scatter and one gather round, putting the
// amortized cost far under the 2 rounds a lone read pays.
func TestConnectedBatchEquivalenceAndAmortization(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(5))
	d := New(Config{N: n, ExpectedEdges: 5 * n})
	g := graph.New(n)
	for _, up := range graph.RandomStream(n, 200, 0.6, 1, rng) {
		applyUpdate(d, up)
		g.Apply(up)
	}
	comp := graph.Components(g)

	pairs := graph.RandomPairs(n, 64, rng)
	ops := make([]graph.Op, len(pairs))
	for i, p := range pairs {
		ops[i] = graph.OpQConnected(p.U, p.V)
	}
	got, st := d.ApplyOps(ops)
	for i, p := range pairs {
		if got[i].Bool != (comp[p.U] == comp[p.V]) {
			t.Fatalf("pair %d (%d,%d): got %v, oracle %v", i, p.U, p.V, got[i].Bool, comp[p.U] == comp[p.V])
		}
	}
	batch := st.Queries
	if batch.Ops != 64 {
		t.Fatalf("window covers %d queries, want 64", batch.Ops)
	}
	if batch.Rounds != 2 || st.Updates.Rounds != 0 {
		t.Fatalf("k=64 read window cost %d+%d rounds, want the 2 of one query", batch.Rounds, st.Updates.Rounds)
	}
	if rpq := batch.RoundsPerOp(); rpq >= 0.5 {
		t.Fatalf("amortized %.3f rounds/query at k=64, want < 0.5", rpq)
	}

	// A lone read still pays its own two rounds.
	_, st = d.ApplyOps([]graph.Op{graph.OpQConnected(0, 1)})
	if single := st.Queries; single.Ops != 1 || single.Rounds != 2 {
		t.Fatalf("lone query window %+v, want 1 query over 2 rounds", single)
	}
}

// TestComponentOfProtocol pins the protocol component read: it matches the
// CompOf validation oracle, costs one round, and is accounted as a query.
func TestComponentOfProtocol(t *testing.T) {
	const n = 24
	d := New(Config{N: n, ExpectedEdges: 100})
	for i := 0; i < 10; i++ {
		ins(d, i, i+1, 1)
	}
	for v := 0; v < n; v++ {
		res, st := d.ApplyOps([]graph.Op{graph.OpQComponentOf(v)})
		if got, want := res[0].Int, d.CompOf(v); got != want {
			t.Fatalf("OpComponentOf(%d) = %d, oracle %d", v, got, want)
		}
		if q := st.Queries; q.Rounds != 1 || q.Ops != 1 || st.Updates.Rounds != 0 {
			t.Fatalf("component query window %+v, want 1 query over 1 round", st)
		}
	}
}

// TestQueryInsideBatchPanics pins the exclusivity rule end to end through
// dyncon: running an op while another accounting window is live is a
// driver bug and must panic, naming the window conflict.
func TestQueryInsideBatchPanics(t *testing.T) {
	d := New(Config{N: 8, ExpectedEdges: 32})
	ins(d, 0, 1, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for a query inside an open window")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "inside an open window") {
			t.Fatalf("panic %v does not name the window conflict", r)
		}
	}()
	d.Cluster().BeginMixed(1, 0)
	connected(d, 0, 1)
}
