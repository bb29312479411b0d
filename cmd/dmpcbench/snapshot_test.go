package main

import "testing"

// TestConsolidatedBaselineCarriesOldGates: BENCH_0015.json, the one
// gating baseline, passes every named check against itself — it parses
// under the current schema, has a row for every gate, and holds every
// invariant. (That its gated cells equal, key for key, the per-mode
// snapshots it replaced was checked against those files in PRs 15 and 18;
// they have left the tree since.)
func TestConsolidatedBaselineCarriesOldGates(t *testing.T) {
	cur, err := readReport("../../BENCH_0015.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gates {
		if len(g.cells(cur)) == 0 {
			t.Errorf("%s: BENCH_0015 has no gated rows", g.name)
		}
	}
	for _, v := range checkBaseline(cur, cur) {
		if v.err != nil {
			t.Errorf("BENCH_0015 fails its own check %q: %v", v.name, v.err)
		}
	}
}
