package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// streamHash fingerprints everything a workload hands the program.
func streamHash(in input) uint64 {
	h := fnv.New64a()
	fmt.Fprintln(h, in.n)
	for _, op := range in.preload {
		fmt.Fprintln(h, op)
	}
	for _, op := range in.ops {
		fmt.Fprintln(h, op, op.Tenant)
	}
	for _, a := range in.arrivals {
		fmt.Fprintln(h, a.At)
	}
	return h.Sum64()
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.gen(1, .02), w.gen(1, .02), w.gen(2, .02)
		if streamHash(a) != streamHash(b) {
			t.Errorf("%s: seed 1 generated two different streams", w.name)
		}
		if streamHash(a) == streamHash(c) {
			t.Errorf("%s: seeds 1 and 2 generated the same stream", w.name)
		}
	}
}

// smoke runs all four workloads at -scale 0.02 and returns the -out file
// and everything printed.
func smoke(t *testing.T, trace string) (report, string) {
	t.Helper()
	traceDir = t.TempDir()
	defer func() { traceDir = "" }()
	out := filepath.Join(t.TempDir(), "out.json")
	var buf bytes.Buffer
	if code := run([]string{"-scale", "0.02", "-seconds", "0", "-trace", trace, "-out", out}, &buf); code != 0 {
		t.Fatalf("bench -trace %s exited %d:\n%s", trace, code, buf.String())
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if trace == "1" {
		for _, w := range workloads {
			if _, err := os.Stat(filepath.Join(traceDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("no span file: %v", err)
			}
		}
	}
	return rep, buf.String()
}

// TestSmokeAndSchema covers the harness end to end — untraced reps, the
// traced replay, the oracle checks — and pins the emitted names to
// BENCHMARK.json: exactly the registered workloads and metrics, each
// with its registered unit.
func TestSmokeAndSchema(t *testing.T) {
	start := time.Now()
	reg, err := readRegistry()
	if err != nil {
		t.Fatal(err)
	}
	untraced, _ := smoke(t, "0")
	traced, _ := smoke(t, "1")
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("smoke took %v, want < 5s", el)
	}

	if len(reg.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json registers %d workloads, the benchmark has %d", len(reg.Workloads), len(workloads))
	}
	check := func(kind string, got map[string]value, want []registered, defs []metricDef) {
		t.Helper()
		if len(got) != len(want) || len(defs) != len(want) {
			t.Errorf("%s: %d emitted, %d defined, %d registered", kind, len(got), len(defs), len(want))
		}
		for i, m := range want {
			if v, ok := got[m.Name]; !ok || v.Unit != m.Unit || v.Unit == "" {
				t.Errorf("%s: %s emitted as %+v (present %v), registered with unit %q", kind, m.Name, v, ok, m.Unit)
			}
			if i < len(defs) && defs[i].name != m.Name {
				t.Errorf("%s: position %d is %s in the benchmark, %s in BENCHMARK.json", kind, i, defs[i].name, m.Name)
			}
			if math.IsNaN(got[m.Name].Value) || math.IsInf(got[m.Name].Value, 0) {
				t.Errorf("%s: %s is %v", kind, m.Name, got[m.Name].Value)
			}
		}
	}
	for _, w := range reg.Workloads {
		u, ok := untraced.Workloads[w.Name]
		if !ok {
			t.Fatalf("registered workload %s was not run", w.Name)
		}
		check(w.Name+" end_to_end", u.E2E, reg.EndToEnd, e2eDefs)
		check(w.Name+" per_layer", traced.Workloads[w.Name].Layers, reg.PerLayer, layerDefs)
		for _, m := range reg.EndToEnd {
			if u.E2E[m.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
			}
		}
	}
}

// TestDriverLine pins the last line of a one-workload run to the
// benchmark contract.
func TestDriverLine(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"--workload", "cc-onecomp", "--seed", "3", "--seconds", "0", "--trace", "0", "-scale", "0.02"}, &buf); code != 0 {
		t.Fatalf("exit %d:\n%s", code, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got struct {
		Correct   *bool            `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    *int             `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if got.Correct == nil || !*got.Correct || got.Failed == nil || *got.Failed != 0 || got.Attempted < 1 {
		t.Errorf("result line: %s", lines[len(lines)-1])
	}
	if len(got.Metrics) != len(e2eDefs) {
		t.Errorf("%d metrics on the result line, want %d", len(got.Metrics), len(e2eDefs))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestHistogramQuantile(t *testing.T) {
	// With many samples behind it the estimate is the grouped-data
	// quantile: the edge between two equal bins, the middle of a bin.
	h := histogram{13: 50, 14: 50}
	if got := h.quantile(.5, 1e12); math.Abs(got-13) > 1e-4 {
		t.Errorf("median of two equal bins = %v, want the edge between them, 13", got)
	}
	if got := h.quantile(.75, 1e12); math.Abs(got-13.5) > 1e-4 {
		t.Errorf("p75 = %v, want 13.5", got)
	}
	// With few, the p99 of a lumpy tail moves smoothly as mass crosses
	// the 1 % line instead of jumping from one lump to the next.
	under := histogram{11: 9904, 22: 96}.quantile(.99, 600)
	over := histogram{11: 9896, 22: 104}.quantile(.99, 600)
	if under < 12 || over > 21.9 || over-under > 1 {
		t.Errorf("p99 across the 1 %% line: %v then %v, want a small step between the lumps", under, over)
	}
}

// TestCompare drives -compare over hand-made reports: identical files
// agree, a slower B regresses, a moved exact metric regresses, and a
// noisy metric is unresolved rather than ok.
func TestCompare(t *testing.T) {
	reps := func(vs ...float64) []map[string]float64 {
		var out []map[string]float64
		for _, v := range vs {
			out = append(out, map[string]float64{"ops_per_s": v})
		}
		return out
	}
	mk := func(ops, rounds float64, r []map[string]float64) report {
		e2e := map[string]value{}
		for _, d := range e2eDefs {
			e2e[d.name] = value{Value: 1, Unit: d.unit}
		}
		e2e["ops_per_s"] = value{Value: ops}
		e2e["rounds_per_op"] = value{Value: rounds}
		return report{Workloads: map[string]result{"cc-uniform": {E2E: e2e, Reps: r, Correct: true}}}
	}
	write := func(r report) string {
		path := filepath.Join(t.TempDir(), "r.json")
		data, _ := json.Marshal(r)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := reps(1000, 1001, 999, 1000)
	base := write(mk(1000, 2.5, steady))
	cases := []struct {
		name    string
		b       report
		code    int
		verdict string
	}{
		{"same", mk(1000, 2.5, steady), 0, "ok"},
		{"slower", mk(600, 2.5, reps(600, 601, 599, 600)), 1, "REGRESSION"},
		{"more rounds", mk(1000, 2.6, steady), 1, "REGRESSION"},
		{"noisy", mk(980, 2.5, reps(700, 980, 980, 1300)), 0, "unresolved"},
		{"faster", mk(1500, 2.5, reps(1500, 1501, 1499, 1500)), 0, "improved"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if code := compare(base, write(c.b), &buf); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.code, buf.String())
		}
		if !strings.Contains(buf.String(), c.verdict) {
			t.Errorf("%s: no %q row\n%s", c.name, c.verdict, buf.String())
		}
	}
}
