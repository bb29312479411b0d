package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// compare reads two -out files and judges B against A, one row per
// workload × end-to-end metric, by each metric's direction and bound in
// BENCHMARK.json. An exact metric must be equal. A wall-clock metric
// regresses when B's value is worse than A's by more than the bound;
// short of that it is only "ok" when both files' rep spreads sit within
// the bound — otherwise it is "unresolved", unless every rep of B beats
// every rep of A. It returns 1 when any row regressed.
func compare(pathA, pathB string, w io.Writer) int {
	reg, err := readRegistry()
	var a, b report
	if err == nil {
		a, err = readReport(pathA)
	}
	if err == nil {
		b, err = readReport(pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	exact := map[string]bool{}
	for _, d := range e2eDefs {
		exact[d.name] = d.exact
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tworse by\tbound\tspread A\tspread B\tverdict")
	regressed := false
	for _, wl := range workloads {
		ra, okA := a.Workloads[wl.name]
		rb, okB := b.Workloads[wl.name]
		if !okA || !okB {
			continue
		}
		for _, m := range reg.EndToEnd {
			va, vb := ra.E2E[m.Name], rb.E2E[m.Name]
			worse := (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := repSpread(ra.Reps, m.Name), repSpread(rb.Reps, m.Name)
			verdict := "ok"
			switch {
			case exact[m.Name] && va.Value == vb.Value:
			case exact[m.Name] && worse < 0:
				verdict = "improved"
			case exact[m.Name], worse > m.Bound:
				verdict, regressed = "REGRESSION", true
			case allBetter(ra.Reps, rb.Reps, m.Name, m.Better == "higher"):
				verdict = "improved"
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				wl.name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
		if rb.Failed > ra.Failed || !rb.Correct {
			fmt.Fprintf(tw, "%s\tfailed\t%d\t%d\t\t\t\t\tREGRESSION\n", wl.name, ra.Failed, rb.Failed)
			regressed = true
		}
	}
	tw.Flush()
	if regressed {
		return 1
	}
	return 0
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// repSpread is the distance between the quartiles of a metric's per-rep
// values as a share of their median (0 for a metric with no per-rep
// values: the exact ones).
func repSpread(reps []map[string]float64, name string) float64 {
	var xs []float64
	for _, r := range reps {
		if v, ok := r[name]; ok {
			xs = append(xs, v)
		}
	}
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// quartiles returns the first and third quartile of xs by the exclusive
// method (Python's statistics.quantiles(xs, n=4)).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// allBetter reports whether every rep of B reads better than every rep
// of A — the one case a wide spread still resolves.
func allBetter(a, b []map[string]float64, name string, higher bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, rb := range b {
		for _, ra := range a {
			va, okA := ra[name]
			vb, okB := rb[name]
			if !okA || !okB || (higher && vb <= va) || (!higher && vb >= va) {
				return false
			}
		}
	}
	return true
}
