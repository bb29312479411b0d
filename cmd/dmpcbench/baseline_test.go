package main

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// passingReport is a hand-built suite document that passes every check
// against itself: a row or more in every table, two or three where an
// invariant filters on k or name.
func passingReport() benchReport {
	return benchReport{
		Schema: "dmpcbench/v5", N: 128, Updates: 500, Seed: 1,
		Table1:   []table1Row{{Name: "cc", MeanRounds: 5.5, WorstRounds: 9, Entropy: 2.5}},
		Static:   []staticRow{{Name: "filtering", Rounds: 7, TotalWords: 2086}},
		ReadOnly: []readRow{{Name: "cc", K: 8, Queries: 128, RoundsPerQuery: 0.25}},
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
		Tenants: []tenantRow{{Name: "cc", VictimSoloP99: 4, VictimFairP99: 6, ZeroTenantIdentical: true}},
		TreeDP: []treedpRow{
			{Name: "uniform", K: 64, DPRoundsPerQuery: 0.04},
			{Name: "uniform", K: 256, DPRoundsPerQuery: 0.02},
			{Name: "powerlaw", K: 64, DPRoundsPerQuery: 2.3},
		},
		Ladder: []ladderRow{{Name: "cc", N: 256, Mu: 9, S: 424, InputN: 1280, Ops: 512, PeakMemOverS: 2.2, Violations: 9447}},
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

// TestEveryNamedCheckTrips applies mutations to a passing report/snapshot
// pair and requires that exactly the named check fails, with a message
// naming what moved. Every table's verdict is tripped by moving the
// snapshot alone, so no invariant of the run moves: its last numeric
// cell once down and once up (a regression and an improvement fail
// alike), a snapshot row the run lacks and a measured row the snapshot
// lacks. Invariants are tripped by a mutation no table sees: the same
// cell moved in run and snapshot alike.
func TestEveryNamedCheckTrips(t *testing.T) {
	if names := failing(checkSnapshot(passingReport(), passingReport())); len(names) != 0 {
		t.Fatalf("unmutated pair fails %q", names)
	}
	type mutation struct {
		check  string
		detail string // substring the failure must carry
		mutate func(rep, want *benchReport)
	}
	cases := []mutation{
		{"same suite", "-seed 2", func(_, want *benchReport) { want.Seed = 2 }},
		{"same suite", "-updates 100", func(rep, _ *benchReport) { rep.Updates = 100 }},
		{"same suite", "dmpcbench/v2", func(_, want *benchReport) { want.Schema = "dmpcbench/v2" }},

		// Every differing cell is listed, not just the first.
		{"batch: every cell", "batch[0].mean_words_per_round is 0, snapshot 40; batch[1].amortized_rounds_per_update is 1.5, snapshot 1",
			func(_, want *benchReport) { want.Batch[0].MeanWords, want.Batch[1].Amortized = 40, 1.0 }},

		{"mixed: in-wave reads beat the quiescence split at k>=64", "k=64",
			func(rep, want *benchReport) { rep.Mixed[1].Ratio, want.Mixed[1].Ratio = 1.0, 1.0 }},
		{"tenants: fair victim p99 <= 2x solo", "solo 2",
			func(rep, want *benchReport) { rep.Tenants[0].VictimSoloP99, want.Tenants[0].VictimSoloP99 = 2, 2 }},
		{"tenants: tags alone change nothing", "cc",
			func(rep, want *benchReport) {
				rep.Tenants[0].ZeroTenantIdentical, want.Tenants[0].ZeroTenantIdentical = false, false
			}},
		{"treedp: uniform DP reads < 1 round/query at k>=64", "k=256",
			func(rep, want *benchReport) {
				rep.TreeDP[1].DPRoundsPerQuery, want.TreeDP[1].DPRoundsPerQuery = 1.5, 1.5
			}},
	}
	for i, tb := range tables(reflect.ValueOf(passingReport())) {
		check := tb.key + ": every cell"
		// snapshotTable is the mutated table of want.
		snapshotTable := func(want *benchReport) reflect.Value { return tables(reflect.ValueOf(want).Elem())[i].rows }
		row := tb.rows.Type().Elem()
		f := lastNumeric(row)
		cell := fmt.Sprintf("%s[0].%s is ", tb.key, jsonKey(row.Field(f)))
		for _, by := range []float64{-1, 1} {
			cases = append(cases, mutation{check, cell, func(_, want *benchReport) {
				c := snapshotTable(want).Index(0).Field(f)
				if c.CanInt() {
					c.SetInt(c.Int() + int64(by))
				} else {
					c.SetFloat(c.Float() + by/4)
				}
			}})
		}
		n := tb.rows.Len()
		cases = append(cases,
			mutation{check, fmt.Sprintf("%s[%d] is in the snapshot but was not measured", tb.key, n), func(_, want *benchReport) {
				rows := snapshotTable(want)
				rows.Set(reflect.Append(rows, rows.Index(0)))
			}},
			mutation{check, fmt.Sprintf("%s[%d] was measured but is not in the snapshot", tb.key, n-1), func(_, want *benchReport) {
				rows := snapshotTable(want)
				rows.Set(rows.Slice(0, n-1))
			}})
	}
	tripped := map[string]bool{}
	for _, tc := range cases {
		rep, want := passingReport(), passingReport()
		tc.mutate(&rep, &want)
		vs := checkSnapshot(rep, want)
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
	for _, v := range checkSnapshot(passingReport(), passingReport()) {
		if !tripped[v.name] {
			t.Errorf("check %q has no mutation that trips it", v.name)
		}
	}
}

// lastNumeric is the index of the row type's last int or float field.
func lastNumeric(row reflect.Type) int {
	last := -1
	for f := 0; f < row.NumField(); f++ {
		switch row.Field(f).Type.Kind() {
		case reflect.Int, reflect.Int64, reflect.Float64:
			last = f
		}
	}
	return last
}
