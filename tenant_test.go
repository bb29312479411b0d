package dmpc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dmpc/internal/graph"
)

// victimArrivals is the read-mostly tenant-1 stream of the adversarial
// scenario: one connectivity query every gap rounds over a small vertex
// range, arriving at a steady cadence.
func victimArrivals(steps int, gap int64) []Arrival {
	arr := make([]Arrival, 0, steps)
	for s := 0; s < steps; s++ {
		u := (s * 2) % 14
		arr = append(arr, Arrival{At: int64(s) * gap, Op: QConnected(u, u+1).ForTenant(1)})
	}
	return arr
}

// noisyMerge interleaves a tenant-2 write storm into the victim stream:
// burst non-conflicting inserts at every victim step, on a vertex range
// disjoint from the victim's queries — the storm contends only for wave
// budget, never for the victim's data, so any victim slowdown is pure
// noisy-neighbor crowding.
func noisyMerge(victim []Arrival, burst int) []Arrival {
	var arr []Arrival
	pair := 0
	for _, a := range victim {
		arr = append(arr, a)
		for j := 0; j < burst; j++ {
			u := 16 + (pair*2)%48
			pair++
			arr = append(arr, Arrival{At: a.At, Op: Ins(u, u+1).ForTenant(2)})
		}
	}
	return arr
}

// TestAdversarialTenantIsolation pins the PR's headline guarantee: a
// write-storm tenant cannot push a read-mostly tenant's p99 rounds-from-
// arrival latency above its solo baseline plus a small tolerance, once
// the multi-tenant controls engage — the front door's weighted forming
// sets meter the storm's share of each window, and a token bucket on the noisy
// tenant sheds the flood the cluster could never absorb (work-conserving
// weights alone cannot shed backlog; admission is what bounds it). The
// unweighted shared run must measurably hurt the victim, and the fair
// run must beat it, proving the mechanism (not luck) provides the
// isolation. Deterministic: fixed streams, handlers inline.
func TestAdversarialTenantIsolation(t *testing.T) {
	const steps, burst = 40, 12
	const gap = 4 // rounds between victim queries; the storm rides each one
	weights := map[int]int{1: 3, 2: 1}
	cfg := IngestorConfig{MaxAge: 4}
	victim := victimArrivals(steps, gap)
	mixed := noisyMerge(victim, burst)

	solo := NewConnectivity(64, 256)
	_, stSolo := Ingest(solo, victim, cfg)
	p99Solo := stSolo.Tenants[1].P99()

	unfair := NewConnectivity(64, 256)
	_, stUnfair := Ingest(unfair, mixed, cfg)
	p99Unfair := stUnfair.Tenants[1].P99()

	fairCC := NewConnectivity(64, 256)
	fairCfg := cfg
	fairCfg.Weights = weights
	fairCfg.Admission = map[int]AdmissionPolicy{2: &TokenBucket{Rate: 0.1, Burst: 1}}
	resFair, stFair := Ingest(fairCC, mixed, fairCfg)
	p99Fair := stFair.Tenants[1].P99()

	if p99Solo == 0 || p99Unfair == 0 || p99Fair == 0 {
		t.Fatalf("degenerate p99s (solo %d, unfair %d, fair %d): scenario produced no latency signal",
			p99Solo, p99Unfair, p99Fair)
	}
	// The flood must actually hurt without the controls, or the scenario
	// proves nothing about the mechanism.
	if p99Unfair <= p99Solo {
		t.Fatalf("write storm did not degrade the unweighted victim (solo p99 %d, shared p99 %d): scenario too weak",
			p99Solo, p99Unfair)
	}
	const tolerance = 4 // rounds of slack over the solo baseline
	if p99Fair > p99Solo+tolerance {
		t.Fatalf("fair victim p99 = %d rounds, want <= solo baseline %d + %d", p99Fair, p99Solo, tolerance)
	}
	if p99Fair >= p99Unfair {
		t.Fatalf("fair victim p99 %d not below unfair %d: the controls provided no isolation", p99Fair, p99Unfair)
	}

	// Isolation must never cost the victim answers: every victim query is
	// answered, admitted, and correct (the victim's range starts
	// disconnected and stays so — the storm never touches vertices below
	// 16). Only noisy writes were shed, and each shed op is counted, never
	// a silent drop.
	nq := 0
	for _, r := range resFair {
		if r.Rejected {
			t.Fatalf("a query was rejected %+v; only the noisy tenant's writes should be shed", r)
		}
		if r.Bool {
			t.Fatalf("victim query answered connected; storm leaked into the victim's vertex range")
		}
		nq++
	}
	if nq != steps {
		t.Fatalf("%d answers, want %d victim queries", nq, steps)
	}
	if stFair.Rejected == 0 || stFair.Tenants[2].Rejected != stFair.Rejected {
		t.Fatalf("flood shed %d ops, %d of them charged to the noisy tenant; want a nonzero, fully charged shed",
			stFair.Rejected, stFair.Tenants[2].Rejected)
	}
	// Per-tenant accounting partitions the stream: the victim's books are
	// untouched, and every noisy op is either admitted or rejected.
	v, n := stFair.Tenants[1], stFair.Tenants[2]
	if v.Ops != steps || v.Rejected != 0 {
		t.Fatalf("victim tenant stats %+v, want %d admitted queries, 0 rejections", v, steps)
	}
	if n.Ops+n.Rejected != steps*burst {
		t.Fatalf("noisy tenant stats %+v: admitted %d + rejected %d ops, want %d writes total",
			n, n.Ops, n.Rejected, steps*burst)
	}
}

// TestTenantSharesPartitionStream pins the Ingestor's one per-tenant
// rounds rule on all four structures: every op of a flush window is
// charged an equal share of the window's rounds, so over a tagged stream
// the tenants' Ops sum to the stream's Ops and their Rounds to its Rounds.
// The front door is weighted, as amm-ingest's is.
func TestTenantSharesPartitionStream(t *testing.T) {
	const n = 48
	connected := func(r *rand.Rand) Op { u := r.Intn(n - 1); return QConnected(u, u+1) }
	mateOf := func(r *rand.Rand) Op { return QMateOf(r.Intn(n)) }
	for _, tc := range []struct {
		name string
		maxW Weight
		read func(*rand.Rand) Op
		mk   func() Pipeline
	}{
		{"Connectivity", 1, connected, func() Pipeline { return NewConnectivity(n, 4*n) }},
		{"MST", 50, connected, func() Pipeline { return NewMST(n, 0, 4*n) }},
		{"MaximalMatching", 1, mateOf, func() Pipeline { return NewMaximalMatching(n, 4*n) }},
		{"AlmostMaximalMatching", 1, mateOf, func() Pipeline { return NewAlmostMaximalMatching(n, 0.25, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			ops := graph.MixedStream(graph.RandomStream(n, 300, .55, tc.maxW, rng), .4, tc.read, rng)
			for i := range ops {
				ops[i].Tenant = i % 4
			}
			p := tc.mk()
			defer p.Close()
			_, st := Ingest(p, PoissonArrivals(ops, 3, rng), IngestorConfig{
				MaxBatch: 16, MaxAge: 16, Weights: map[int]int{0: 1, 1: 2, 2: 3, 3: 4},
			})
			if st.Ops != len(ops) || st.Flushes < 2 || st.Rounds == 0 {
				t.Fatalf("degenerate stream: %d of %d ops in %d flushes, %d rounds",
					st.Ops, len(ops), st.Flushes, st.Rounds)
			}
			if len(st.Tenants) != 4 {
				t.Fatalf("%d tenant entries, want 4", len(st.Tenants))
			}
			nops, rounds := 0, 0.0
			for _, ts := range st.Tenants {
				nops += ts.Ops
				rounds += ts.Rounds
			}
			if nops != st.Ops {
				t.Fatalf("tenant Ops sum to %d, stream has %d", nops, st.Ops)
			}
			if math.Abs(rounds-float64(st.Rounds)) > 1e-9*float64(st.Rounds) {
				t.Fatalf("tenant Rounds sum to %v, stream has %d", rounds, st.Rounds)
			}
		})
	}
}

// TestZeroTenantStreamsIdentical pins the compatibility contract: tenant
// tags alone (no weights, no admission) must not change answers, flush
// pattern, or latencies — the tags only add the per-tenant breakdown.
func TestZeroTenantStreamsIdentical(t *testing.T) {
	const steps, burst = 24, 6
	mixed := noisyMerge(victimArrivals(steps, 2), burst)
	plain := make([]Arrival, len(mixed))
	for i, a := range mixed {
		a.Op.Tenant = 0
		plain[i] = a
	}

	ccPlain := NewConnectivity(64, 256)
	resPlain, stPlain := Ingest(ccPlain, plain, IngestorConfig{MaxAge: 4})
	ccTag := NewConnectivity(64, 256)
	resTag, stTag := Ingest(ccTag, mixed, IngestorConfig{MaxAge: 4})

	if len(resPlain) != len(resTag) {
		t.Fatalf("tagged stream answered %d queries, untagged %d", len(resTag), len(resPlain))
	}
	for i := range resPlain {
		if resPlain[i] != resTag[i] {
			t.Fatalf("query %d: tagged %+v, untagged %+v", i, resTag[i], resPlain[i])
		}
	}
	if stPlain.Flushes != stTag.Flushes || stPlain.FlushConflict != stTag.FlushConflict ||
		stPlain.FlushAge != stTag.FlushAge || stPlain.FlushFull != stTag.FlushFull {
		t.Fatalf("flush pattern differs: untagged %+v, tagged %+v", stPlain, stTag)
	}
	if len(stPlain.Latencies) != len(stTag.Latencies) {
		t.Fatalf("latency counts differ: %d vs %d", len(stPlain.Latencies), len(stTag.Latencies))
	}
	for i := range stPlain.Latencies {
		if stPlain.Latencies[i] != stTag.Latencies[i] {
			t.Fatalf("op %d latency: tagged %d, untagged %d", i, stTag.Latencies[i], stPlain.Latencies[i])
		}
	}
	if stPlain.Tenants != nil {
		t.Fatalf("untagged stream grew a Tenants map: %+v", stPlain.Tenants)
	}
	// Empty Weights and Admission maps configure nothing, so they turn
	// on no breakdown either.
	for _, cfg := range []IngestorConfig{
		{MaxAge: 4, Weights: map[int]int{}},
		{MaxAge: 4, Admission: map[int]AdmissionPolicy{}},
	} {
		cc := NewConnectivity(64, 256)
		if _, st := Ingest(cc, plain, cfg); st.Tenants != nil {
			t.Fatalf("untagged stream under %+v grew a Tenants map: %+v", cfg, st.Tenants)
		}
	}
	if len(stTag.Tenants) != 2 {
		t.Fatalf("tagged stream has %d tenant entries, want 2", len(stTag.Tenants))
	}
	for v := 0; v < 64; v++ {
		if ccPlain.CompOf(v) != ccTag.CompOf(v) {
			t.Fatalf("component of %d differs: tagged %d, untagged %d", v, ccTag.CompOf(v), ccPlain.CompOf(v))
		}
	}
}

// TestIngestorAdmission pins the per-tenant front door: a TokenBucket
// throttles the noisy tenant's storm, every refusal is counted against
// its tenant (never a silent drop), rejected queries still occupy their positional
// slot in Results with Rejected set, and an AlwaysAdmit tenant sails
// through untouched.
func TestIngestorAdmission(t *testing.T) {
	cc := NewConnectivity(32, 128)
	ing := NewIngestor(IngestorConfig{
		Pipeline: cc,
		MaxAge:   4,
		Admission: map[int]AdmissionPolicy{
			1: AlwaysAdmit{},
			2: &TokenBucket{Rate: 0.5, Burst: 2}, // ~1 op per 2 rounds after the burst
		},
	})
	// Tenant 2 floods 10 writes at t=0: Burst admits 2, the rest reject.
	for i := 0; i < 10; i++ {
		ing.Push(Arrival{At: 0, Op: Ins(2*i, 2*i+1).ForTenant(2)})
	}
	// Tenant 1 reads at t=0 (admitted ops 0-1 inserted (0,1) and (2,3)).
	ing.Push(Arrival{At: 0, Op: QConnected(0, 1).ForTenant(1)})
	// A rejected tenant-2 query must still answer, positionally, as Rejected.
	ing.Push(Arrival{At: 0, Op: QConnected(2, 3).ForTenant(2)})
	// Later, the bucket has refilled: tenant 2 admits again.
	ing.Push(Arrival{At: 8, Op: QConnected(2, 3).ForTenant(2)})
	res, st := ing.Close()

	if st.Rejected != 9 {
		t.Fatalf("%d rejections, want 9 (8 flooded writes + 1 query)", st.Rejected)
	}
	if st.Tenants[2].Rejected != st.Rejected {
		t.Fatalf("%d rejections charged to tenant 2, want all %d", st.Tenants[2].Rejected, st.Rejected)
	}
	// Results: query 0 = victim's QConnected(0,1) -> true (edge admitted);
	// query 1 = rejected tenant-2 read; query 2 = refilled tenant-2 read.
	if len(res) != 3 {
		t.Fatalf("%d answers, want 3", len(res))
	}
	if !res[0].Bool || res[0].Rejected {
		t.Fatalf("victim query answered %+v, want connected and admitted", res[0])
	}
	if !res[1].Rejected {
		t.Fatalf("throttled query answered %+v, want Rejected", res[1])
	}
	if res[2].Rejected || !res[2].Bool {
		t.Fatalf("post-refill query answered %+v, want admitted and connected", res[2])
	}
	// Per-tenant books: tenant 1 clean, tenant 2 charged its rejections.
	if ts := st.Tenants[1]; ts.Rejected != 0 || ts.Ops != 1 {
		t.Fatalf("victim tenant stats %+v, want 1 query, 0 rejections", ts)
	}
	if ts := st.Tenants[2]; ts.Rejected != 9 || ts.Ops != 3 {
		t.Fatalf("noisy tenant stats %+v, want 2 admitted updates, 1 admitted query, 9 rejections", ts)
	}
}

// TestFlushedWindowIsOneWave pins why no structure below the front door
// meters tenants: a window the claims-admitting Ingestor flushed was
// admitted by the same first-fit rules the structure packs with, so it
// runs as at most one wave, with or without Weights — there is nothing
// left for a second meter to reshape. §6 is exempt: it runs one wave per
// update run and per read run.
func TestFlushedWindowIsOneWave(t *testing.T) {
	const n = 256
	connected := func(r *rand.Rand) Op { return QConnected(r.Intn(n), r.Intn(n)) }
	mateOf := func(r *rand.Rand) Op { return QMateOf(r.Intn(n)) }
	for _, tc := range []struct {
		name string
		maxW Weight
		read func(*rand.Rand) Op
		mk   func() Pipeline
	}{
		{"Connectivity", 1, connected, func() Pipeline { return NewConnectivity(n, 4*n) }},
		{"MST", 50, connected, func() Pipeline { return NewMST(n, 0, 4*n) }},
		{"MaximalMatching", 1, mateOf, func() Pipeline { return NewMaximalMatching(n, 4*n) }},
	} {
		for _, weights := range []map[int]int{nil, {0: 1, 1: 2, 2: 3, 3: 4}} {
			t.Run(fmt.Sprintf("%s/weights=%v", tc.name, weights != nil), func(t *testing.T) {
				rng := rand.New(rand.NewSource(5))
				ops := graph.MixedStream(graph.RandomStream(n, 3000, .55, tc.maxW, rng), .5, tc.read, rng)
				for i := range ops {
					ops[i].Tenant = i % 4
				}
				p := tc.mk()
				defer p.Close()
				_, st := Ingest(p, PoissonArrivals(ops, 8, rng), IngestorConfig{
					MaxBatch: 64, MaxAge: 64, Weights: weights,
				})
				if st.Ops != len(ops) || len(st.Windows) < 2 {
					t.Fatalf("degenerate stream: %d of %d ops in %d windows", st.Ops, len(ops), len(st.Windows))
				}
				for i, w := range st.Windows {
					if len(w.Waves) > 1 {
						t.Fatalf("window %d of %d (%d ops) ran as %d waves, want at most 1",
							i, len(st.Windows), w.Ops, len(w.Waves))
					}
				}
			})
		}
	}
}

// TestIngestorMetersTaggedTenants pins that the front door's Fair policy
// meters each op under its own tenant's share: the Ingestor tags the item
// it admits. Eight reads arriving at once fit one forming set on tenant
// 2's 99 % share of the budget, but tenant 1's 1 % share cuts them into
// several windows.
func TestIngestorMetersTaggedTenants(t *testing.T) {
	flushes := func(tenant int) int {
		cc := NewConnectivity(64, 256)
		defer cc.Close()
		var arr []Arrival
		for i := 0; i < 8; i++ {
			arr = append(arr, Arrival{Op: QConnected(2*i, 2*i+1).ForTenant(tenant)})
		}
		_, st := Ingest(cc, arr, IngestorConfig{Weights: map[int]int{1: 1, 2: 99}})
		return st.Flushes
	}
	if heavy, light := flushes(2), flushes(1); heavy != 1 || light < 2 {
		t.Fatalf("8 reads flushed in %d windows on the heavy tenant's share and %d on the light one's, want 1 and more than 1", heavy, light)
	}
}
