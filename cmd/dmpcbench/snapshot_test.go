package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// snapshotPath is the committed suite document every run is judged by.
const snapshotPath = "../../BENCH_0015.json"

// TestSuiteMatchesSnapshot measures the suite with BENCH_0015.json's
// flags, inline and on four worker shards, and requires every named check
// of checkSnapshot to pass for both: every cell equal to the snapshot's —
// an improvement is a change too, re-pinned in the same commit with
// `go run ./cmd/dmpcbench -json > BENCH_0015.json` — and every invariant
// true. The snapshot itself must have rows in every table, and no
// goroutine of the sharded pass may outlive it: every instance the suite
// builds is closed.
func TestSuiteMatchesSnapshot(t *testing.T) {
	want, err := readReport(snapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables(reflect.ValueOf(want)) {
		if tb.rows.Len() == 0 {
			t.Errorf("%s: BENCH_0015 has no rows", tb.key)
		}
	}
	defer func(w int) { benchWorkers = w }(benchWorkers)
	for _, w := range []int{1, 4} {
		goroutines := runtime.NumGoroutine()
		benchWorkers = w
		rep := measureSuite(want.N, want.Updates, want.Seed, want.WallMax)
		for _, v := range checkSnapshot(rep, want) {
			if v.err != nil {
				t.Errorf("workers=%d: %s: %v", w, v.name, v.err)
			}
		}
		if now := runtime.NumGoroutine(); now != goroutines {
			t.Errorf("workers=%d: %d goroutines before the suite, %d after: an instance was left open", w, goroutines, now)
		}
	}
}

func readReport(path string) (benchReport, error) {
	var rep benchReport
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// verdict is one named check's outcome.
type verdict struct {
	name string
	err  error
}

// checkSnapshot judges a run against a committed snapshot of the same
// suite: first that both measured the same streams, then every table and
// every invariant, each reported under its own name.
func checkSnapshot(rep, want benchReport) []verdict {
	if want.Schema != rep.Schema || want.N != rep.N || want.Updates != rep.Updates || want.Seed != rep.Seed || want.WallMax != rep.WallMax {
		return []verdict{{"same suite", fmt.Errorf("snapshot is %s -n %d -updates %d -seed %d -wallmax %d; this run is %s -n %d -updates %d -seed %d -wallmax %d",
			want.Schema, want.N, want.Updates, want.Seed, want.WallMax, rep.Schema, rep.N, rep.Updates, rep.Seed, rep.WallMax)}}
	}
	vs := []verdict{{"same suite", nil}}
	got := tables(reflect.ValueOf(rep))
	for i, tb := range tables(reflect.ValueOf(want)) {
		var diffs []string
		diffCells(tb.key, got[i].rows, tb.rows, &diffs)
		var err error
		if len(diffs) > 0 {
			err = errors.New(strings.Join(diffs, "; "))
		}
		vs = append(vs, verdict{tb.key + ": every cell", err})
	}
	for _, iv := range invariants {
		vs = append(vs, verdict{iv.name, iv.check(rep)})
	}
	return vs
}

// block is one table of a benchReport (a slice field), under its JSON key.
type block struct {
	key  string
	rows reflect.Value
}

// tables lists the tables of the benchReport v, in field order; they are
// settable where v is.
func tables(v reflect.Value) []block {
	var ts []block
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() == reflect.Slice {
			ts = append(ts, block{jsonKey(v.Type().Field(i)), v.Field(i)})
		}
	}
	return ts
}

func jsonKey(f reflect.StructField) string {
	return strings.Split(f.Tag.Get("json"), ",")[0]
}

// diffCells appends one line for each cell of got that differs from
// want's, and one for each row (or slice element) only one side has.
// Structs are walked by field, named by JSON key; slices by index. The
// suite is deterministic for fixed flags, so its row order is too.
func diffCells(path string, got, want reflect.Value, diffs *[]string) {
	switch want.Kind() {
	case reflect.Struct:
		for i := 0; i < want.NumField(); i++ {
			diffCells(path+"."+jsonKey(want.Type().Field(i)), got.Field(i), want.Field(i), diffs)
		}
	case reflect.Slice:
		for i := 0; i < max(got.Len(), want.Len()); i++ {
			at := fmt.Sprintf("%s[%d]", path, i)
			switch {
			case i >= got.Len():
				*diffs = append(*diffs, at+" is in the snapshot but was not measured")
			case i >= want.Len():
				*diffs = append(*diffs, at+" was measured but is not in the snapshot")
			default:
				diffCells(at, got.Index(i), want.Index(i), diffs)
			}
		}
	default:
		if !got.Equal(want) {
			*diffs = append(*diffs, fmt.Sprintf("%s is %v, snapshot %v", path, got, want))
		}
	}
}

// invariant is a headline that must hold outright in the measured run,
// whatever the snapshot says.
type invariant struct {
	name  string
	check func(benchReport) error
}

var invariants = []invariant{
	{"mixed: in-wave reads beat the quiescence split at k>=64", func(r benchReport) error {
		for _, m := range r.Mixed {
			if m.K >= 64 && m.Ratio >= 1 {
				return fmt.Errorf("%s (k=%d): ratio %.3f", m.Name, m.K, m.Ratio)
			}
		}
		return nil
	}},
	{"arrivals: tail-constrained AutoBatcher settles below the free k", func(r benchReport) error {
		for _, l := range r.LatencyAuto {
			if l.BoundK >= l.FreeK {
				return fmt.Errorf("%s (%s): TargetP99Rounds=%d settled at k=%d, unconstrained at k=%d", l.Name, l.Gen, l.Target, l.BoundK, l.FreeK)
			}
		}
		return nil
	}},
	{"tenants: fair victim p99 <= 2x solo", func(r benchReport) error {
		for _, t := range r.Tenants {
			if t.VictimFairP99 > 2*t.VictimSoloP99 {
				return fmt.Errorf("%s: fair p99 %d rounds vs solo %d — the noisy tenant broke isolation", t.Name, t.VictimFairP99, t.VictimSoloP99)
			}
		}
		return nil
	}},
	{"tenants: tags alone change nothing", func(r benchReport) error {
		for _, t := range r.Tenants {
			if !t.ZeroTenantIdentical {
				return fmt.Errorf("%s: tagged and untagged runs differ in answers or accounting", t.Name)
			}
		}
		return nil
	}},
	// The power-law rows are exempt: a giant component legitimately
	// serializes its reads around its own structural churn (the
	// snapshot-consistency contract).
	{"treedp: uniform DP reads < 1 round/query at k>=64", func(r benchReport) error {
		for _, t := range r.TreeDP {
			if t.Name == "uniform" && t.K >= 64 && t.DPRoundsPerQuery >= 1 {
				return fmt.Errorf("k=%d workers=%d: %.3f rounds/query", t.K, t.Workers, t.DPRoundsPerQuery)
			}
		}
		return nil
	}},
	{"treedp: DP answers match across worker counts", func(r benchReport) error {
		for _, t := range r.TreeDP {
			if !t.AnswersMatch {
				return fmt.Errorf("%s k=%d: the worker counts disagree — the determinism rule is broken", t.Name, t.K)
			}
		}
		return nil
	}},
	{"wallclock: rounds/op bit-equal across worker counts", func(r benchReport) error {
		return wallPairs(r, func(inline, sharded wallRow) error {
			if sharded.RoundsPerOp != inline.RoundsPerOp {
				return fmt.Errorf("%s n=%d: workers=%d %.3f vs inline %.3f — the worker count changed the computation, not just its speed",
					sharded.Name, sharded.N, sharded.Workers, sharded.RoundsPerOp, inline.RoundsPerOp)
			}
			return nil
		})
	}},
}

func wallKey(w wallRow) string { return fmt.Sprintf("%s n=%d workers=%d", w.Name, w.N, w.Workers) }

// wallPairs calls f on every (inline, sharded) pair of wallclock rows,
// the two compareWorkers counts; a row without its partner is an error.
func wallPairs(r benchReport, f func(inline, sharded wallRow) error) error {
	rows := map[string]wallRow{}
	for _, w := range r.Wall {
		rows[wallKey(w)] = w
	}
	inline, sharded := compareWorkers[0], compareWorkers[1]
	partner := map[int]int{inline: sharded, sharded: inline}
	for _, w := range r.Wall {
		other := w
		other.Workers = partner[w.Workers]
		o, ok := rows[wallKey(other)]
		if !ok {
			return fmt.Errorf("%s has no workers=%d partner", wallKey(w), other.Workers)
		}
		if w.Workers == inline {
			if err := f(w, o); err != nil {
				return err
			}
		}
	}
	return nil
}
