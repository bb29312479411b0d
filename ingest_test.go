package dmpc

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dmpc/internal/graph"
)

// TestIngestorBurstStorm is the deterministic burst-storm case: a burst
// of component-disjoint inserts forms one wave set, and a late-arriving
// op whose claims conflict with the open set must NOT join it — the set
// flushes at the newcomer's arrival time and the newcomer starts a fresh
// set.
func TestIngestorBurstStorm(t *testing.T) {
	cc := NewConnectivity(16, 64)
	ing := NewIngestor(IngestorConfig{Pipeline: cc})
	// The storm: disjoint singleton components, all admitted into one set.
	ing.Push(Arrival{At: 0, Op: Ins(0, 1)})
	ing.Push(Arrival{At: 0, Op: Ins(2, 3)})
	ing.Push(Arrival{At: 0, Op: Ins(4, 5)})
	if ing.Pending() != 3 {
		t.Fatalf("storm did not form one set: %d pending", ing.Pending())
	}
	// The latecomer: Ins(1,2) holds component(1) exclusively, which the
	// open set already holds — it must seal and flush the set, not join.
	ing.Push(Arrival{At: 1, Op: Ins(1, 2)})
	if ing.Pending() != 1 {
		t.Fatalf("conflicting latecomer did not cut the set: %d pending", ing.Pending())
	}
	res, st := ing.Close()
	if len(res) != 0 {
		t.Fatalf("update-only stream answered %d queries", len(res))
	}
	if st.Flushes != 2 || st.FlushConflict != 1 || st.FlushTail != 1 {
		t.Fatalf("flushes (total %d, conflict %d, tail %d), want (2, 1, 1)",
			st.Flushes, st.FlushConflict, st.FlushTail)
	}
	if st.Windows[0].Ops != 3 || st.Windows[1].Ops != 1 {
		t.Fatalf("window widths (%d, %d), want (3, 1)", st.Windows[0].Ops, st.Windows[1].Ops)
	}
	// Virtual-clock accounting: the first flush starts at the trigger
	// (t=1), the tail flush queues behind it, and every op's latency is
	// completion minus its own arrival.
	r0, r1 := int64(st.Windows[0].Rounds()), int64(st.Windows[1].Rounds())
	if st.Makespan != 1+r0+r1 {
		t.Fatalf("makespan %d, want %d", st.Makespan, 1+r0+r1)
	}
	wantLat := []int64{1 + r0, 1 + r0, 1 + r0, r0 + r1}
	if len(st.Latencies) != len(wantLat) {
		t.Fatalf("%d latencies, want %d", len(st.Latencies), len(wantLat))
	}
	for i, want := range wantLat {
		if st.Latencies[i] != want {
			t.Fatalf("latency[%d] = %d, want %d (windows %d+%d rounds)",
				i, st.Latencies[i], want, r0, r1)
		}
	}
	// End state matches the sequential result regardless of the cut.
	for _, pair := range [][2]int{{0, 1}, {2, 3}, {4, 5}, {1, 2}, {0, 3}} {
		if cc.CompOf(pair[0]) != cc.CompOf(pair[1]) {
			t.Fatalf("components of %v differ after ingest", pair)
		}
	}
}

// TestIngestorNonConflictingJoins pins the complement of the burst-storm
// case: a latecomer whose claims are disjoint from the open set joins it,
// and the whole stream flushes as one window at Close.
func TestIngestorNonConflictingJoins(t *testing.T) {
	cc := NewConnectivity(16, 64)
	ing := NewIngestor(IngestorConfig{Pipeline: cc})
	ing.Push(Arrival{At: 0, Op: Ins(0, 1)})
	ing.Push(Arrival{At: 3, Op: Ins(2, 3)})
	_, st := ing.Close()
	if st.Flushes != 1 || st.FlushTail != 1 || st.Windows[0].Ops != 2 {
		t.Fatalf("disjoint latecomer did not share the wave set: %+v", st)
	}
}

// TestIngestorAgeBound pins the age flush: the oldest forming op waits at
// most MaxAge rounds, whatever arrives.
func TestIngestorAgeBound(t *testing.T) {
	cc := NewConnectivity(16, 64)
	ing := NewIngestor(IngestorConfig{Pipeline: cc, MaxAge: 10})
	ing.Push(Arrival{At: 0, Op: Ins(0, 1)})
	ing.Push(Arrival{At: 15, Op: QConnected(4, 5)})
	res, st := ing.Close()
	if st.Flushes != 2 || st.FlushAge != 1 || st.FlushTail != 1 {
		t.Fatalf("flushes (total %d, age %d, tail %d), want (2, 1, 1)",
			st.Flushes, st.FlushAge, st.FlushTail)
	}
	// The aged flush starts at its deadline (t=10), not at the arrival
	// that triggered it (t=15).
	r0 := int64(st.Windows[0].Rounds())
	if st.Latencies[0] != 10+r0 {
		t.Fatalf("aged op latency %d, want %d", st.Latencies[0], 10+r0)
	}
	if len(res) != 1 || res[0].Bool {
		t.Fatalf("query answered %+v, want unconnected", res)
	}
}

// TestIngestorMaxAgeBoundary pins the inclusive edge of the age bound:
// an arrival at exactly formingAt[0]+MaxAge triggers flushAge (age ==
// MaxAge is stale, not fresh), and the flush starts at that deadline.
// One tick earlier the forming set must still be intact. The ops are
// non-conflicting reads so nothing but the age bound can cut the stream.
func TestIngestorMaxAgeBoundary(t *testing.T) {
	cc := NewConnectivity(16, 64)
	ing := NewIngestor(IngestorConfig{Pipeline: cc, MaxAge: 8})
	ing.Push(Arrival{At: 0, Op: QConnected(0, 1)})
	// Age 7 < MaxAge: joins the forming set, no flush.
	ing.Push(Arrival{At: 7, Op: QConnected(2, 3)})
	if st := ing.Stats(); st.Flushes != 0 {
		t.Fatalf("arrival at age MaxAge-1 flushed (%d flushes), want the set still forming", st.Flushes)
	}
	// Age exactly 8 == MaxAge: the boundary arrival must trigger flushAge
	// before it joins a fresh forming set.
	ing.Push(Arrival{At: 8, Op: QConnected(4, 5)})
	st := ing.Stats()
	if st.Flushes != 1 || st.FlushAge != 1 {
		t.Fatalf("flushes (total %d, age %d) after boundary arrival, want (1, 1)", st.Flushes, st.FlushAge)
	}
	// The aged flush runs at the deadline t=8, so the oldest op's latency
	// is exactly MaxAge plus the window's rounds.
	r0 := int64(st.Windows[0].Rounds())
	if st.Latencies[0] != 8+r0 {
		t.Fatalf("boundary-aged op latency %d, want %d (deadline 8 + %d rounds)", st.Latencies[0], 8+r0, r0)
	}
	res, st := ing.Close()
	if st.Flushes != 2 || st.FlushTail != 1 {
		t.Fatalf("flushes (total %d, tail %d) after close, want (2, 1)", st.Flushes, st.FlushTail)
	}
	if len(res) != 3 {
		t.Fatalf("%d answers, want 3", len(res))
	}
}

// TestIngestorBatchBound pins the k flush: the forming set never exceeds
// MaxBatch ops (reads of disjoint vertices never conflict, so only the
// size bound cuts this stream).
func TestIngestorBatchBound(t *testing.T) {
	cc := NewConnectivity(16, 64)
	ing := NewIngestor(IngestorConfig{Pipeline: cc, MaxBatch: 2})
	for i := 0; i < 5; i++ {
		ing.Push(Arrival{At: 0, Op: QConnected(2*i, 2*i+1)})
	}
	res, st := ing.Close()
	if st.Flushes != 3 || st.FlushFull != 2 || st.FlushTail != 1 {
		t.Fatalf("flushes (total %d, full %d, tail %d), want (3, 2, 1)",
			st.Flushes, st.FlushFull, st.FlushTail)
	}
	if len(res) != 5 {
		t.Fatalf("%d answers, want 5", len(res))
	}
}

// TestIngestorGuards pins the Push contract: no time regressions, no
// pushes after Close, and Close idempotence.
func TestIngestorGuards(t *testing.T) {
	cc := NewConnectivity(8, 32)
	ing := NewIngestor(IngestorConfig{Pipeline: cc})
	ing.Push(Arrival{At: 5, Op: Ins(0, 1)})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("time regression did not panic")
			}
		}()
		ing.Push(Arrival{At: 4, Op: Ins(1, 2)})
	}()
	res1, st1 := ing.Close()
	res2, st2 := ing.Close()
	if len(res1) != len(res2) || st1.Flushes != st2.Flushes {
		t.Fatal("Close is not idempotent")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Push after Close did not panic")
			}
		}()
		ing.Push(Arrival{At: 9, Op: Ins(2, 3)})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewIngestor without a Pipeline did not panic")
			}
		}()
		NewIngestor(IngestorConfig{})
	}()
}

// TestIngestZeroGapMatchesApply pins the re-expression both ways: Ingest
// of an ArrivalsNow schedule and Apply of the full slice must agree on
// every answer and on the end state — Apply literally is the zero-
// inter-arrival special case, and the admission cuts Ingest adds on top
// may move rounds between windows but never change results.
func TestIngestZeroGapMatchesApply(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(11))
	updates := graph.RandomStream(n, 240, 0.6, 1, rng)
	ops := graph.MixedStream(updates, 0.4, func(r *rand.Rand) Op {
		if r.Intn(2) == 0 {
			return QConnected(r.Intn(n), r.Intn(n))
		}
		return QComponentOf(r.Intn(n))
	}, rng)

	ref := NewConnectivity(n, 4*n)
	want, _ := ref.Apply(ops)

	cc := NewConnectivity(n, 4*n)
	got, st := Ingest(cc, ArrivalsNow(ops), IngestorConfig{})
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
			t.Fatalf("component of %d differs: %d vs %d", v, cc.CompOf(v), ref.CompOf(v))
		}
	}
	if st.Ops != len(ops) || len(st.Latencies) != len(ops) {
		t.Fatalf("stream stats cover %d ops, %d latencies; stream has %d",
			st.Ops, len(st.Latencies), len(ops))
	}
	if st.Makespan != int64(st.Rounds) {
		t.Fatalf("zero-gap makespan %d != rounds %d (no idle time exists)", st.Makespan, st.Rounds)
	}
	if v := cc.Cluster().Stats().Violations; v != 0 {
		t.Fatalf("%d cluster violations", v)
	}
}

// TestIngestOneWindowEqualsApply pins that an Ingestor flush is one
// Pipeline.Apply call and nothing else: replaying the windows an Ingest of
// an ArrivalsNow schedule cut, each as one Apply on a twin structure,
// gives the same window accounting and the same answers, on all three
// cores.
func TestIngestOneWindowEqualsApply(t *testing.T) {
	const n = 48
	mateOf := func(r *rand.Rand) Op { return QMateOf(r.Intn(n)) }
	for _, tc := range []struct {
		name  string
		mk    func() Pipeline
		query func(*rand.Rand) Op
	}{
		{"connectivity §5", func() Pipeline { return NewConnectivity(n, 4*n) },
			func(r *rand.Rand) Op { return QConnected(r.Intn(n), r.Intn(n)) }},
		{"maximal matching §3", func() Pipeline { return NewMaximalMatching(n, 4*n) }, mateOf},
		{"almost-maximal matching §6", func() Pipeline { return NewAlmostMaximalMatching(n, 0.5, 7) }, mateOf},
	} {
		rng := rand.New(rand.NewSource(21))
		ops := graph.MixedStream(graph.RandomStream(n, 120, 0.6, 1, rng), 0.4, tc.query, rng)

		got, st := Ingest(tc.mk(), ArrivalsNow(ops), IngestorConfig{})
		twin := tc.mk()
		var want Results
		at := 0
		for i, w := range st.Windows {
			res, wst := twin.Apply(ops[at : at+w.Ops])
			if !w.Equal(wst) {
				t.Fatalf("%s: flush %d differs from Apply of its ops:\n got: %+v\nwant: %+v", tc.name, i, w, wst)
			}
			want = append(want, res...)
			at += w.Ops
		}
		if at != len(ops) {
			t.Fatalf("%s: the flushes cover %d ops of %d", tc.name, at, len(ops))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: answers differ from Apply's", tc.name)
		}
	}
}

// TestIngestPoissonMatchingEquivalence runs a well-formed mixed matching
// stream through Poisson arrivals and pins answers and the final mate
// table against Apply on the full slice.
func TestIngestPoissonMatchingEquivalence(t *testing.T) {
	const n = 48
	rng := rand.New(rand.NewSource(12))
	updates := graph.RandomStream(n, 160, 0.6, 1, rng)
	ops := graph.MixedStream(updates, 0.3, func(r *rand.Rand) Op {
		return QMateOf(r.Intn(n))
	}, rng)

	ref := NewMaximalMatching(n, 4*n)
	want, _ := ref.Apply(ops)

	mm := NewMaximalMatching(n, 4*n)
	arrivals := PoissonArrivals(ops, 6, rand.New(rand.NewSource(13)))
	got, st := Ingest(mm, arrivals, IngestorConfig{MaxBatch: 16, MaxAge: 32})
	if len(got) != len(want) {
		t.Fatalf("%d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	wantMates, gotMates := ref.MateTable(), mm.MateTable()
	for v := range wantMates {
		if wantMates[v] != gotMates[v] {
			t.Fatalf("mate of %d differs: %d vs %d", v, gotMates[v], wantMates[v])
		}
	}
	if st.Makespan < int64(st.Rounds) {
		t.Fatalf("makespan %d below busy rounds %d", st.Makespan, st.Rounds)
	}
	if st.P50() > st.P95() || st.P95() > st.P99() {
		t.Fatalf("percentiles not monotone: p50 %d, p95 %d, p99 %d", st.P50(), st.P95(), st.P99())
	}
	if v := mm.Cluster().Stats().Violations; v != 0 {
		t.Fatalf("%d cluster violations", v)
	}
}

// TestIngestorStatsIsSnapshot pins that Stats is a snapshot: pushes after
// it move none of its per-tenant counts, and appending to any of its
// slices (latencies, windows, a tenant's latencies) leaves
// the live records alone. Tenant 2's bucket never refills, so each of its
// ops is a rejection.
func TestIngestorStatsIsSnapshot(t *testing.T) {
	cc := NewConnectivity(16, 64)
	defer cc.Close()
	ing := NewIngestor(IngestorConfig{Pipeline: cc, MaxBatch: 1,
		Admission: map[int]AdmissionPolicy{2: &TokenBucket{}}})
	push := func(i int) {
		ing.Push(Arrival{At: int64(i), Op: Ins(2*i, 2*i+1).ForTenant(1)})
		ing.Push(Arrival{At: int64(i), Op: Ins(2*i, 2*i+1).ForTenant(2)})
	}
	for i := 0; i < 3; i++ {
		push(i)
	}
	snap := ing.Stats()
	v := snap.Tenants[1]
	rounds := v.Rounds
	v.Latencies = append(v.Latencies, -1)
	snap.Latencies = append(snap.Latencies, -1)
	snap.Windows = append(snap.Windows, MixedStats{Ops: -1})
	for i := 3; i < 5; i++ {
		push(i)
	}
	if v.Ops != 3 || v.Rounds != rounds || snap.Tenants[2].Rejected != 3 || snap.Rejected != 3 {
		t.Fatalf("snapshot moved after two more pushes: %+v (Rounds was %v), %+v", v, rounds, snap.Tenants[2])
	}
	if v.Latencies[3] != -1 || snap.Latencies[3] != -1 || snap.Windows[3].Ops != -1 {
		t.Fatal("a push after the snapshot wrote into one of its slices")
	}
	_, st := ing.Close()
	live := st.Tenants[1]
	if live.Ops != 5 || slices.Contains(live.Latencies, -1) || slices.Contains(st.Latencies, -1) ||
		st.Windows[3].Ops == -1 || st.Rejected != 5 {
		t.Fatalf("live records %+v: want 5 ops and none of the snapshot's appends", st)
	}
}

// TestIngestAllocsPerOp bounds what the streaming front door allocates
// per op on amm-ingest's shape at n = 128: an amm op stream (2 000
// updates, reads at 0.5) dealt to four weighted tenants, Poisson arrivals
// with mean gap 8, MaxBatch 64 and MaxAge 64, handlers inline. The count
// covers Ingest end to end: the arrival heap, admission, the flush
// windows' ApplyOps and the stream accounting. The bound sits 10 % over
// what it measured when it was set, 1.33 allocations per op (the same
// under -race).
func TestIngestAllocsPerOp(t *testing.T) {
	const n = 128
	rng := rand.New(rand.NewSource(1))
	ups := graph.RandomStream(n, 2000, .55, 1, rng)
	ops := graph.MixedStream(ups, .5, func(r *rand.Rand) Op { return QMateOf(r.Intn(n)) }, rng)
	for i := range ops {
		ops[i].Tenant = 1 + i%4
	}
	arrivals := PoissonArrivals(ops, 8, rng)
	cfg := IngestorConfig{MaxBatch: 64, MaxAge: 64, Weights: map[int]int{1: 1, 2: 2, 3: 3, 4: 4}}
	am := NewAlmostMaximalMatching(n, 0.25, 1)
	defer am.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, st := Ingest(am, arrivals, cfg)
	runtime.ReadMemStats(&after)
	if st.Ops != len(ops) {
		t.Fatalf("ingested %d ops of %d", st.Ops, len(ops))
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(len(ops))
	t.Logf("%d ops in %d flushes: %.3f allocs/op", len(ops), st.Flushes, allocs)
	const most = 1.46
	if allocs > most {
		t.Errorf("Ingest makes %.3f allocations per op, over %.2f", allocs, most)
	}
}
