package main

import (
	"slices"
	"testing"
)

// loadSnapshot parses a committed BENCH_*.json from the repo root.
func loadSnapshot(t *testing.T, name string) benchReport {
	t.Helper()
	rep, err := readReport("../../" + name)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestWallSnapshotLadder checks the committed BENCH_0009 records the full
// ladder through n=10^6, each rung on both backends. (Its ns columns are no
// longer read — time is not part of the document — so the makespan claim
// DESIGN.md §4 quotes from it is history, not a test.)
func TestWallSnapshotLadder(t *testing.T) {
	rep := loadSnapshot(t, "BENCH_0009.json")
	seen := map[int]bool{}
	for _, w := range rep.Wall {
		seen[w.N] = true
	}
	for _, n := range []int{128, 10_000, 100_000, 1_000_000} {
		if !seen[n] {
			t.Errorf("BENCH_0009 missing the n=%d rung", n)
		}
	}
	if err := wallPairs(rep, func(sim, par wallRow) error { return nil }); err != nil {
		t.Error(err)
	}
}

// TestConsolidatedBaselineCarriesOldGates pins that BENCH_0015.json, the
// one gating baseline, did not re-pin a regression when it replaced the
// six per-mode ones: every gated deterministic cell of it equals the
// frozen snapshot that used to gate that column, key for key (allocs/round
// jitters by a GC clock, so there the new budget may only be tighter), and
// the document passes every named check against itself.
func TestConsolidatedBaselineCarriesOldGates(t *testing.T) {
	cur := loadSnapshot(t, "BENCH_0015.json")
	for _, tc := range []struct{ gate, frozen string }{
		{"batch: amortized rounds/update", "BENCH_0004.json"},
		{"batch: amortized rounds/update", "BENCH_0005.json"},
		{"mixed: in-wave rounds/op", "BENCH_0005.json"},
		{"arrivals: latency p99 rounds at k=64", "BENCH_0006.json"},
		{"tenants: fair victim p99 rounds", "BENCH_0008.json"},
		{"wallclock: rounds/op", "BENCH_0009.json"},
		{"wallclock: allocs/round", "BENCH_0009.json"},
		{"treedp: DP rounds/query at k=64", "BENCH_0010.json"},
	} {
		gi := slices.IndexFunc(gates, func(g gate) bool { return g.name == tc.gate })
		if gi < 0 {
			t.Fatalf("no gate named %q", tc.gate)
		}
		old := map[string]float64{}
		for _, c := range gates[gi].cells(loadSnapshot(t, tc.frozen)) {
			old[c.key] = c.v
		}
		cells := gates[gi].cells(cur)
		if len(cells) == 0 {
			t.Errorf("%s: BENCH_0015 has no gated rows", tc.gate)
		}
		for _, c := range cells {
			v, ok := old[c.key]
			switch {
			case !ok:
				t.Errorf("%s: BENCH_0015 row %q is not in %s", tc.gate, c.key, tc.frozen)
			case gates[gi].slack > 0 && c.v > v:
				t.Errorf("%s %q: BENCH_0015 budget %.3f is looser than %s's %.3f", tc.gate, c.key, c.v, tc.frozen, v)
			case gates[gi].slack == 0 && c.v != v:
				t.Errorf("%s %q: BENCH_0015 has %v, %s has %v", tc.gate, c.key, c.v, tc.frozen, v)
			}
		}
	}
	for _, v := range checkBaseline(cur, cur, 0) {
		if v.err != nil {
			t.Errorf("BENCH_0015 fails its own check %q: %v", v.name, v.err)
		}
	}
}
