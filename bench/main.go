// Command bench is the repository's reference benchmark: four long-run
// workloads through the public front doors, the end-to-end metrics
// BENCHMARK.json registers, and a traced run that attributes each
// workload's time to the layers under the facade. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"dmpc/internal/mpc"
)

// minReps is the fewest measured passes a run makes, however short
// -seconds is: medians and the identical-counts check need three.
const minReps = 3

// Extra set-up samples: after the reps, set-up alone repeats until a run
// holds setupSamples of them or setupBudget is spent, so that the median
// of a sub-millisecond set-up is steady.
const (
	setupSamples = 101
	setupBudget  = 500 * time.Millisecond
)

type config struct {
	seed    int64
	scale   float64
	seconds float64
	trace   bool
}

// report is the -out file.
type report struct {
	Machine struct {
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"GOMAXPROCS"`
		Go         string `json:"go"`
	} `json:"machine"`
	Seed      int64             `json:"seed"`
	Scale     float64           `json:"scale"`
	Workloads map[string]result `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "generator seed (1 is the reference seed, 2 the hold-out)")
	seconds := fs.Float64("seconds", 15, "measure each workload for at least this long (whole reps, at least 3)")
	trace := fs.Int("trace", 0, "1 = traced run against the cores, printing the per-layer metrics")
	scale := fs.Float64("scale", 1, "multiply every workload's sizes (smoke runs)")
	out := fs.String("out", "", "also write the results to this file as JSON")
	cmp := fs.Bool("compare", false, "compare two -out files, A.json B.json, under BENCHMARK.json's bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two -out files, A.json B.json")
			return 2
		}
		return compare(fs.Arg(0), fs.Arg(1), stdout)
	}
	if _, err := repoRoot(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	runtime.GOMAXPROCS(benchProcs)
	var selected []*workload
	for i := range workloads {
		if *name == "all" || *name == workloads[i].name {
			selected = append(selected, &workloads[i])
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	cfg := config{seed: *seed, scale: *scale, seconds: *seconds, trace: *trace != 0}
	rep := report{Seed: cfg.seed, Scale: cfg.scale, Workloads: map[string]result{}}
	rep.Machine.NProc, rep.Machine.GOMAXPROCS, rep.Machine.Go = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	ok := true
	for _, w := range selected {
		res := runWorkload(w, cfg)
		rep.Workloads[w.name] = res
		ok = ok && res.Correct
		printResult(stdout, w.name, res)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: outputs are not correct")
		return 1
	}
	if len(selected) == 1 {
		printDriverLine(stdout, rep.Workloads[selected[0].name], cfg.trace)
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runWorkload generates the load and measures it: untraced reps through
// the front door, or the traced pass against the core.
func runWorkload(w *workload, cfg config) result {
	t0 := time.Now()
	in := w.gen(cfg.seed, cfg.scale)
	genS := time.Since(t0).Seconds()
	chk := w.check(w, in)

	var res result
	if cfg.trace {
		res = traceWorkload(w, in, chk, genS)
	} else {
		var reps []rep
		var setups []float64
		measured := 0.0
		for len(reps) < minReps || measured < cfg.seconds {
			r := runRep(w, in, chk)
			reps = append(reps, r)
			setups = append(setups, r.SetupS)
			measured += r.WallS
		}
		for spent := time.Now(); len(setups) < setupSamples && time.Since(spent) < setupBudget; {
			runtime.GC()
			inst, s := setUp(w, in, w.facade, mpc.BackendParallel)
			inst.close()
			setups = append(setups, s)
		}
		res = reduce(reps, setups)
		if err := withUnits(res.E2E, e2eDefs); err != nil {
			res.Errors, res.Correct = append(res.Errors, err.Error()), false
		}
	}
	return res
}

func printResult(w io.Writer, name string, res result) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tmin–max over reps")
	row := func(defs []metricDef, m map[string]value) {
		for _, d := range defs {
			v, ok := m[d.name]
			if !ok {
				continue
			}
			spread := ""
			if v.Min != nil {
				spread = fmt.Sprintf("%.6g–%.6g", *v.Min, *v.Max)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%s\n", name, d.name, v.Value, v.Unit, spread)
		}
	}
	row(e2eDefs, res.E2E)
	row(layerDefs, res.Layers)
	failedFrac := 0.0
	if res.Attempted > 0 {
		failedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(tw, "%s\tfailed_frac\t%g\tratio\t%d of %d\n", name, failedFrac, res.Failed, res.Attempted)
	tw.Flush()
	for _, e := range res.Errors {
		fmt.Fprintf(w, "%s: CHECK FAILED: %s\n", name, e)
	}
}

// printDriverLine prints the one-object result line the benchmark
// contract ends a run with: the end-to-end metrics of an untraced run,
// the per-layer metrics of a traced one.
func printDriverLine(w io.Writer, res result, traced bool) {
	metrics := res.E2E
	if traced {
		metrics = res.Layers
	}
	flat := make(map[string]value, len(metrics))
	for k, v := range metrics {
		flat[k] = value{Value: v.Value, Unit: v.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, flat})
	fmt.Fprintf(w, "%s\n", line)
}
