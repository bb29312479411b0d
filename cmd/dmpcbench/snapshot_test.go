package main

import (
	"math"
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

// TestWallSnapshotImprovement pins the point of the sparse-activation
// round engine: the committed BENCH_0009 wall-clock rows at n=10^5 must
// be at least 10% faster per op than BENCH_0007's on BOTH backends and
// BOTH algorithms, while rounds/op stays bit-identical (the engine may
// only change time, never the schedule). The snapshots are committed
// artifacts, so this is a property of the repo, not of the machine the
// test runs on — it fails if someone re-pins BENCH_0009 with the
// improvement lost.
func TestWallSnapshotImprovement(t *testing.T) {
	const n = 100_000
	oldRep := loadSnapshot(t, "BENCH_0007.json")
	newRep := loadSnapshot(t, "BENCH_0009.json")
	type key struct {
		name, backend string
	}
	oldRows := map[key]wallRow{}
	for _, w := range oldRep.Wall {
		if w.N == n {
			oldRows[key{w.Name, w.Backend}] = w
		}
	}
	if len(oldRows) == 0 {
		t.Fatalf("BENCH_0007 has no wall rows at n=%d", n)
	}
	matched := 0
	for _, w := range newRep.Wall {
		if w.N != n {
			continue
		}
		old, ok := oldRows[key{w.Name, w.Backend}]
		if !ok {
			t.Errorf("%s/%s: in BENCH_0009 but not BENCH_0007", w.Name, w.Backend)
			continue
		}
		matched++
		if math.Abs(w.RoundsPerOp-old.RoundsPerOp) > 1e-9 {
			t.Errorf("%s/%s: rounds/op moved %.6f -> %.6f; the engine may only change wall-clock time",
				w.Name, w.Backend, old.RoundsPerOp, w.RoundsPerOp)
		}
		if w.NsPerOp > 0.9*old.NsPerOp {
			t.Errorf("%s/%s: ns/op %.0f not >=10%% under BENCH_0007's %.0f",
				w.Name, w.Backend, w.NsPerOp, old.NsPerOp)
		}
		if w.AllocsPerRound <= 0 {
			t.Errorf("%s/%s: BENCH_0009 row missing allocs/round (the allocs/round gate needs it)",
				w.Name, w.Backend)
		}
	}
	if matched != len(oldRows) {
		t.Fatalf("only %d of %d n=%d rows matched between snapshots", matched, len(oldRows), n)
	}
}

// TestWallSnapshotLadder checks the committed BENCH_0009 records the full
// ladder through n=10^6 with the parallel backend winning the makespan on
// every rung at n >= 10^4 — the trajectory claim DESIGN.md §4 makes.
func TestWallSnapshotLadder(t *testing.T) {
	rep := loadSnapshot(t, "BENCH_0009.json")
	sim := map[[2]interface{}]wallRow{}
	seen := map[int]bool{}
	for _, w := range rep.Wall {
		seen[w.N] = true
		if w.Backend == "sim" {
			sim[[2]interface{}{w.Name, w.N}] = w
		}
	}
	for _, n := range []int{128, 10_000, 100_000, 1_000_000} {
		if !seen[n] {
			t.Errorf("BENCH_0009 missing the n=%d rung", n)
		}
	}
	for _, w := range rep.Wall {
		if w.Backend != "parallel" || w.N < 10_000 {
			continue
		}
		s, ok := sim[[2]interface{}{w.Name, w.N}]
		if !ok {
			t.Errorf("%s n=%d: parallel row without sim partner", w.Name, w.N)
			continue
		}
		if w.MakespanNs >= s.MakespanNs {
			t.Errorf("%s n=%d: parallel makespan %d not under sim %d", w.Name, w.N, w.MakespanNs, s.MakespanNs)
		}
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
