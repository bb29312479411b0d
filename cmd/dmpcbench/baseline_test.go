package main

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// passingReport is a hand-built suite document that passes every check
// against itself: two rows per gated table (one gated, one not, where the
// gate filters on k) and one sim/parallel wallclock pair at n = 10^4.
func passingReport() benchReport {
	return benchReport{
		Schema: "dmpcbench/v4", N: 128, Updates: 500, Seed: 1, WallMax: 10_000,
		Table1:   []table1Row{{Name: "cc", MeanRounds: 5.5, WorstRounds: 9, Entropy: 2.5}},
		Static:   []staticRow{{Name: "label-prop", Rounds: 12, TotalWords: 17586}},
		Auto:     []autoRow{{Name: "cc", Ks: []int{8, 16, 32}, FinalK: 32, Amortized: 1.7}},
		ReadOnly: []readRow{{Name: "cc", K: 8, Queries: 128, RoundsPerQuery: 0.25}},
		Sweep:    []sweepRow{{N: 64, WorstRounds: 9, WorstWords: 300}},
		Batch: []batchRow{
			{Name: "cc", K: 1, Amortized: 5.5},
			{Name: "cc", K: 64, Amortized: 1.5},
		},
		Mixed: []mixedRow{
			{Name: "cc", K: 8, InwavePerOp: 1.5, Ratio: 0.4},
			{Name: "cc", K: 64, InwavePerOp: 1.0, Ratio: 0.3},
		},
		Arrivals: []arrivalRow{
			{Name: "cc", Gen: "poisson", K: 8, P99: 49},
			{Name: "cc", Gen: "poisson", K: 64, P99: 73},
		},
		LatencyAuto: []latencyAutoRow{{Name: "cc", Gen: "poisson", Target: 40, FreeK: 128, BoundK: 16}},
		Tenants:     []tenantRow{{Name: "cc", VictimSoloP99: 4, VictimFairP99: 6, ZeroTenantIdentical: true}},
		TreeDP: []treedpRow{
			{Name: "uniform", K: 64, Backend: "sim", DPRoundsPerQuery: 0.04, AnswersMatch: true},
			{Name: "uniform", K: 256, Backend: "sim", DPRoundsPerQuery: 0.02, AnswersMatch: true},
			{Name: "powerlaw", K: 64, Backend: "sim", DPRoundsPerQuery: 2.3, AnswersMatch: true},
		},
		Wall: []wallRow{
			{Name: "cc", N: 10_000, Backend: "sim", RoundsPerOp: 1.5, AllocsPerRound: 100},
			{Name: "cc", N: 10_000, Backend: "parallel", RoundsPerOp: 1.5, AllocsPerRound: 50},
		},
	}
}

func failing(vs []verdict) []string {
	var names []string
	for _, v := range vs {
		if v.err != nil {
			names = append(names, v.name)
		}
	}
	return names
}

// TestEveryNamedCheckTrips applies one mutation per named check to a
// passing report/snapshot pair and requires that exactly that check fails.
// Gates are tripped by moving the snapshot (so no invariant of the run
// moves) — by any difference, so each of the six that used to be
// one-sided tolerances is tripped once by a regression and once by an
// improvement — invariants by a mutation no gate sees: a boolean of the
// run, or the same number moved in run and snapshot alike.
func TestEveryNamedCheckTrips(t *testing.T) {
	if names := failing(checkBaseline(passingReport(), passingReport())); len(names) != 0 {
		t.Fatalf("unmutated pair fails %q", names)
	}
	// Unexported fields are printed, never gated.
	timed := passingReport()
	timed.TreeDP[0].elapsed = time.Second
	if names := failing(checkBaseline(timed, passingReport())); len(names) != 0 {
		t.Fatalf("a run differing only in elapsed time fails %q", names)
	}
	cases := []struct {
		check  string
		detail string // substring the failure must carry
		mutate func(rep, want *benchReport)
	}{
		{"same suite", "-seed 2", func(_, want *benchReport) { want.Seed = 2 }},
		{"same suite", "-wallmax 128", func(rep, _ *benchReport) { rep.WallMax = 128 }},
		{"same suite", "dmpcbench/v2", func(_, want *benchReport) { want.Schema = "dmpcbench/v2" }},

		{"table1: every cell", "cc Entropy", func(_, want *benchReport) { want.Table1[0].Entropy = 2.6 }},
		{"static: every cell", "label-prop Rounds", func(_, want *benchReport) { want.Static[0].Rounds = 16 }},
		{"autobatch: every cell", "cc Ks[2]", func(_, want *benchReport) { want.Auto[0].Ks[2] = 64 }},
		{"autobatch: every cell", `measured row "cc Ks[2]" is not in the snapshot`,
			func(_, want *benchReport) { want.Auto[0].Ks = want.Auto[0].Ks[:2] }},
		{"read_only: every cell", "cc k=8 RoundsPerQuery", func(_, want *benchReport) { want.ReadOnly[0].RoundsPerQuery = 0.5 }},
		{"sweep: every cell", "n=64 WorstWords", func(_, want *benchReport) { want.Sweep[0].WorstWords = 301 }},
		{"batch: every cell", "cc k=64 Amortized", func(_, want *benchReport) { want.Batch[1].Amortized = 1.0 }},
		{"batch: every cell", "cc k=64 Amortized", func(_, want *benchReport) { want.Batch[1].Amortized = 1.6 }},
		{"batch: every cell", "cc k=1 MeanWords", func(_, want *benchReport) { want.Batch[0].MeanWords = 40 }},
		{"mixed: every cell", "cc k=64 InwavePerOp", func(_, want *benchReport) { want.Mixed[1].InwavePerOp = 0.5 }},
		{"mixed: every cell", "cc k=64 InwavePerOp", func(_, want *benchReport) { want.Mixed[1].InwavePerOp = 1.05 }},
		{"mixed: every cell", "cc k=8 FreeRides", func(_, want *benchReport) { want.Mixed[0].FreeRides = 3 }},
		{"arrivals: every cell", "cc poisson k=64 P99", func(_, want *benchReport) { want.Arrivals[1].P99 = 50 }},
		{"arrivals: every cell", "cc poisson k=64 P99", func(_, want *benchReport) { want.Arrivals[1].P99 = 74 }},
		{"arrivals: every cell", "cc poisson k=8 P99", func(_, want *benchReport) { want.Arrivals[0].P99 = 48 }},
		{"latency_autobatch: every cell", "cc poisson BoundK", func(_, want *benchReport) { want.LatencyAuto[0].BoundK = 32 }},
		{"tenants: every cell", "cc VictimFairP99", func(_, want *benchReport) { want.Tenants[0].VictimFairP99 = 4 }},
		{"tenants: every cell", "cc VictimFairP99", func(_, want *benchReport) { want.Tenants[0].VictimFairP99 = 7 }},
		{"tenants: every cell", "cc NoisyFairRounds", func(_, want *benchReport) { want.Tenants[0].NoisyFairRounds = 30.5 }},
		{"treedp: every cell", "uniform k=64 sim DPRoundsPerQuery", func(_, want *benchReport) { want.TreeDP[0].DPRoundsPerQuery = 0.01 }},
		{"treedp: every cell", "uniform k=64 sim DPRoundsPerQuery", func(_, want *benchReport) { want.TreeDP[0].DPRoundsPerQuery = 0.041 }},
		{"treedp: every cell", "uniform k=256 sim DPRoundsPerQuery", func(_, want *benchReport) { want.TreeDP[1].DPRoundsPerQuery = 0.03 }},
		{"wallclock: rounds/op", "cc n=10000 sim", func(_, want *benchReport) { want.Wall[0].RoundsPerOp = 1.0 }},
		{"wallclock: rounds/op", "cc n=10000 sim", func(_, want *benchReport) { want.Wall[0].RoundsPerOp = 1.51 }},
		{"wallclock: allocs/round", "cc n=10000 parallel", func(_, want *benchReport) { want.Wall[1].AllocsPerRound = 10 }},

		// A gated row missing on either side is an error naming table and key.
		{"arrivals: every cell", `snapshot row "cc poisson k=64 K" was not measured`,
			func(rep, _ *benchReport) { rep.Arrivals = rep.Arrivals[:1] }},
		{"arrivals: every cell", `measured row "cc poisson k=64 K" is not in the snapshot`,
			func(_, want *benchReport) { want.Arrivals = want.Arrivals[:1] }},
		{"batch: every cell", `snapshot row "cc k=1 K" was not measured`,
			func(rep, _ *benchReport) { rep.Batch = rep.Batch[1:] }},

		{"mixed: in-wave reads beat the quiescence split at k>=64", "k=64",
			func(rep, want *benchReport) { rep.Mixed[1].Ratio, want.Mixed[1].Ratio = 1.0, 1.0 }},
		{"arrivals: tail-constrained AutoBatcher settles below the free k", "k=128",
			func(rep, want *benchReport) { rep.LatencyAuto[0].BoundK, want.LatencyAuto[0].BoundK = 128, 128 }},
		{"tenants: fair victim p99 <= 2x solo", "solo 2",
			func(rep, want *benchReport) { rep.Tenants[0].VictimSoloP99, want.Tenants[0].VictimSoloP99 = 2, 2 }},
		{"tenants: tags alone change nothing", "cc", func(rep, _ *benchReport) { rep.Tenants[0].ZeroTenantIdentical = false }},
		{"treedp: uniform DP reads < 1 round/query at k>=64", "k=256",
			func(rep, want *benchReport) {
				rep.TreeDP[1].DPRoundsPerQuery, want.TreeDP[1].DPRoundsPerQuery = 1.5, 1.5
			}},
		{"treedp: DP answers match across backends", "powerlaw k=64", func(rep, _ *benchReport) { rep.TreeDP[2].AnswersMatch = false }},
		{"wallclock: rounds/op bit-equal across backends", "parallel 1.400 vs sim 1.500",
			func(rep, want *benchReport) { rep.Wall[1].RoundsPerOp, want.Wall[1].RoundsPerOp = 1.4, 1.4 }},
	}
	tripped := map[string]bool{}
	for _, tc := range cases {
		rep, want := passingReport(), passingReport()
		tc.mutate(&rep, &want)
		vs := checkBaseline(rep, want)
		if names := failing(vs); !slices.Equal(names, []string{tc.check}) {
			t.Errorf("%s (%s): failing checks %q, want exactly that one", tc.check, tc.detail, names)
			continue
		}
		for _, v := range vs {
			if v.err != nil && !strings.Contains(v.err.Error(), tc.detail) {
				t.Errorf("%s: failure %q does not name %q", tc.check, v.err, tc.detail)
			}
		}
		tripped[tc.check] = true
	}
	for _, v := range checkBaseline(passingReport(), passingReport()) {
		if !tripped[v.name] {
			t.Errorf("check %q has no mutation that trips it", v.name)
		}
	}
}

// TestGateTolerance pins the one budget gate's arithmetic: allocs/round
// may sit up to 10 % + 16 over the snapshot and anywhere under it, one
// alloc more fails — and no other gate has any give at all.
func TestGateTolerance(t *testing.T) {
	rep, want := passingReport(), passingReport()
	rep.Wall[0].AllocsPerRound = 3
	rep.Wall[1].AllocsPerRound = 50*1.10 + 16
	if names := failing(checkBaseline(rep, want)); len(names) != 0 {
		t.Errorf("allocs/round within its budget fails %q", names)
	}
	rep.Wall[1].AllocsPerRound++
	if names := failing(checkBaseline(rep, want)); !slices.Equal(names, []string{"wallclock: allocs/round"}) {
		t.Errorf("allocs/round one over its budget: failing checks %q, want that gate alone", names)
	}
	for _, g := range gates {
		if g.budget != (g.name == "wallclock: allocs/round") {
			t.Errorf("gate %q: budget=%v; allocs/round is the only budget gate", g.name, g.budget)
		}
	}
}
