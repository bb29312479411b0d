// Command dmpcbench is the repo's one model-cost harness. Every run
// measures every table on a deterministic random update stream — Table 1
// of the paper (rounds per update, active machines and communicated words
// per round, communication entropy, next to the bound the paper claims,
// the §7 reductions and the static recompute baselines), the batch
// pipeline at k ∈ {1, 64}, the AutoBatcher's knee search, in-wave reads
// against the quiescence split, read-only windows, streaming arrivals,
// tenant isolation, tree DP, the §5 O(√N) sweep and the sim-vs-parallel
// ladder up to -wallmax — and emits them as text tables or, with -json,
// as one dmpcbench/v4 document (see benchReport; BENCH_0015.json is the
// committed one). Wall-clock has its own harness, bench/.
//
// With -baseline FILE the run is judged against such a document by the
// named checks of checkBaseline, one verdict line each on stderr, and the
// command exits nonzero if any fails — the CI bench-regression step.
//
// -cpuprofile FILE / -memprofile FILE wrap the measured section (first
// table to last; construction of the report and printing stay outside) in
// a pprof CPU capture, resp. snapshot the live heap right after it.
//
// Usage:
//
//	dmpcbench [-n 128] [-updates 500] [-seed 1] [-wallmax n] [-backend b] [-workers w] [-cpuprofile FILE] [-memprofile FILE] [-json] [-baseline FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"

	"dmpc"
	"dmpc/internal/core/amm"
	"dmpc/internal/core/dmm"
	"dmpc/internal/core/dyncon"
	"dmpc/internal/core/reduction"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/seqdyn"
	"dmpc/internal/staticmpc"
)

// The suite's fixed parameters: the one value each retired mode flag was
// ever run with.
const (
	batchK   = 64  // the batch table's k, measured next to k=1
	readFrac = 0.5 // read fraction of the mixed table's op streams
)

// table1Row is one algorithm's per-update measurement. Entropy is §8's
// communication entropy of the whole run: a coordinator (§3) concentrates
// traffic on few machine pairs and scores low, broadcasts (§5) spread it.
type table1Row struct {
	Name          string  `json:"name"`
	Claim         string  `json:"claim"`
	MeanRounds    float64 `json:"mean_rounds_per_update"`
	WorstRounds   int     `json:"wc_rounds"`
	WorstMachines int     `json:"wc_machines_per_round"`
	MeanWords     float64 `json:"mean_words_per_round"`
	WorstWords    int     `json:"wc_words_per_round"`
	Entropy       float64 `json:"comm_entropy_bits"`
}

// applyOps is a core's one execution path.
type applyOps func([]graph.Op) (graph.Results, mpc.MixedStats)

// runner executes one batch of updates and returns the update half it was
// billed. A per-update measurement is a batch of one.
type runner func(graph.Batch) mpc.HalfStats

// window runs each batch as one write-only ApplyOps window (a read-free
// window is its update half).
func window(apply applyOps) runner {
	return func(b graph.Batch) mpc.HalfStats {
		_, st := apply(graph.UpdateOps(b))
		return st.Updates
	}
}

// add folds the half b into a: counts and sums add, peaks max.
func add(a *mpc.HalfStats, b mpc.HalfStats) {
	a.Ops += b.Ops
	a.Rounds += b.Rounds
	a.SumActive += b.SumActive
	a.SumWords += b.SumWords
	a.MaxActive = max(a.MaxActive, b.MaxActive)
	a.MaxWords = max(a.MaxWords, b.MaxWords)
}

// perUpdate runs a batch through a driver that bills every update its own
// window — the §7 reduction, §6's cycle — and sums the windows.
func perUpdate(f func(graph.Update) mpc.HalfStats) runner {
	return func(b graph.Batch) (st mpc.HalfStats) {
		for _, up := range b {
			add(&st, f(up))
		}
		return st
	}
}

// ammCycle is §6's fixed-schedule per-update driver (see amm.M.Insert).
func ammCycle(m *amm.M) runner {
	return perUpdate(func(up graph.Update) mpc.HalfStats {
		if up.Op == graph.Insert {
			return m.Insert(up.U, up.V)
		}
		return m.Delete(up.U, up.V)
	})
}

// tally is the fold every update table shares: a stream replayed in
// chunks of k, its windows summed, counted, and the longest one noted.
type tally struct {
	mpc.HalfStats
	windows, worstRounds int
}

func replay(updates []graph.Update, k int, run runner) (t tally) {
	for _, b := range graph.Chunk(updates, k) {
		st := run(b)
		add(&t.HalfStats, st)
		t.windows++
		t.worstRounds = max(t.worstRounds, st.Rounds)
	}
	return t
}

// per divides, reading an empty denominator as zero.
func per(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func measure(name, claim string, updates []graph.Update, run runner, cl *mpc.Cluster) table1Row {
	t := replay(updates, 1, run)
	return table1Row{
		Name: name, Claim: claim,
		MeanRounds: per(t.Rounds, t.Ops), WorstRounds: t.worstRounds, WorstMachines: t.MaxActive,
		MeanWords: per(t.SumWords, t.Rounds), WorstWords: t.MaxWords,
		Entropy: cl.CommEntropy(),
	}
}

// alg is one dynamic algorithm as the update tables measure it; mk builds
// a fresh instance. For the cores a per-update measurement is a batch of
// one, so each and batch are the same write-only window — except §6,
// whose per-update protocol is its fixed-schedule cycle — and the §7
// reductions have no shared window, so a batch is its updates replayed one
// by one (the simulation is inherently serial: the row stays flat).
type alg struct {
	name, claim string
	mk          func() inst
}

type inst struct {
	each, batch runner
	cl          *mpc.Cluster
}

func algs(n int, seed int64) []alg {
	capEdges := 6 * n
	core := func(apply applyOps, cl *mpc.Cluster) inst { w := window(apply); return inst{w, w, cl} }
	mm := func(threeHalves bool) inst {
		m := newDMM(dmm.Config{N: n, CapEdges: capEdges, ThreeHalves: threeHalves})
		return core(m.ApplyOps, m.Cluster())
	}
	cc := func(mode dyncon.Mode, eps float64) inst {
		d := newDyncon(dyncon.Config{N: n, Mode: mode, Eps: eps, ExpectedEdges: capEdges})
		return core(d.ApplyOps, d.Cluster())
	}
	red := func(t reduction.Target) inst {
		sim := reduction.NewSim(8, 1<<18)
		run := perUpdate(reduction.NewWrapped(sim, t).Update)
		return inst{run, run, sim.Cluster()}
	}
	return []alg{
		{"Maximal matching (§3)", "O(1) r, O(1) mach, O(√N) words", func() inst { return mm(false) }},
		{"3/2-approx matching (§4)", "O(1) r, O(n/√N) mach, O(√N) words", func() inst { return mm(true) }},
		{"(2+ε)-approx matching (§6)", "O(1) r, Õ(1) mach, Õ(1) words", func() inst {
			m := newAMM(amm.Config{N: n, Seed: seed})
			return inst{ammCycle(m), window(m.ApplyOps), m.Cluster()}
		}},
		{"Connected comps (§5)", "O(1) r, O(√N) mach, O(√N) words", func() inst { return cc(dyncon.CC, 0) }},
		{"(1+ε)-MST (§5.1)", "O(1) r, O(√N) mach, O(√N) words", func() inst { return cc(dyncon.MST, 0.25) }},
		{"Reduction: conn comps (§7+HDT)", "Õ(1) r amort., O(1) mach, O(1) words",
			func() inst { return red(reduction.HDTTarget{H: seqdyn.NewHDT(n)}) }},
		{"Reduction: matching (§7+NS)", "O(√m) r wc, O(1) mach, O(1) words",
			func() inst { return red(reduction.NSMatchTarget{M: seqdyn.NewNSMatch(n, capEdges)}) }},
		{"Reduction: MST (§7+DynMSF)", "Õ(1) r amort., O(1) mach, O(1) words",
			func() inst { return red(reduction.MSFTarget{F: seqdyn.NewDynMSF(n)}) }},
	}
}

// table measures every algorithm update by update, each on its own stream.
func table(n, nUpdates int, seed int64) []table1Row {
	var rows []table1Row
	for i, a := range algs(n, seed) {
		stream := graph.RandomStream(n, nUpdates, 0.55, 50, rand.New(rand.NewSource(seed+int64(i)+1)))
		in := a.mk()
		rows = append(rows, measure(a.name, a.claim, stream, in.each, in.cl))
	}
	return rows
}

// batchRow is one algorithm's batch-pipeline measurement at a given k.
type batchRow struct {
	Name           string  `json:"name"`
	K              int     `json:"k"`
	Batches        int     `json:"batches"`
	RoundsPerBatch float64 `json:"rounds_per_batch"`
	Amortized      float64 `json:"amortized_rounds_per_update"`
	WorstMachines  int     `json:"wc_machines_per_round"`
	MeanWords      float64 `json:"mean_words_per_round"`
}

func measureBatch(name string, updates []graph.Update, k int, run runner) batchRow {
	t := replay(updates, k, run)
	return batchRow{
		Name: name, K: k, Batches: t.windows,
		RoundsPerBatch: per(t.Rounds, t.windows), Amortized: per(t.Rounds, t.Ops),
		WorstMachines: t.MaxActive, MeanWords: per(t.SumWords, t.Rounds),
	}
}

// suiteStream is the one update stream the batch, autobatch, mixed and
// read-only tables all replay, so their round counts are comparable.
func suiteStream(n, nUpdates int, seed int64) []graph.Update {
	return graph.RandomStream(n, nUpdates, 0.55, 50, rand.New(rand.NewSource(seed+100)))
}

// batchTable measures the cores and one §7 reduction at k=1 (the
// per-update driver) and k=batchK over the same stream, a fresh instance
// per k so both see identical starting states.
func batchTable(n, nUpdates int, seed int64) []batchRow {
	stream := suiteStream(n, nUpdates, seed)
	var rows []batchRow
	for _, a := range algs(n, seed)[:6] {
		rows = append(rows, measureBatch(a.name, stream, 1, a.mk().each), measureBatch(a.name, stream, batchK, a.mk().batch))
	}
	return rows
}

func printBatchTable(rows []batchRow) {
	printRows(fmt.Sprintf("\nBatch pipeline (write-only ApplyOps windows, k=%d vs k=1):", batchK),
		"Algorithm\tk\trounds/batch\tamortized rounds/upd\tmach/round (wc)\twords/round (mean)",
		"%s\t%d\t%.2f\t%.2f\t%d\t%.1f", rows,
		func(r batchRow) []any {
			return []any{r.Name, r.K, r.RoundsPerBatch, r.Amortized, r.WorstMachines, r.MeanWords}
		},
		"(amortized rounds/update dropping as k grows is the batch-dynamic headline;",
		" the §7 reduction replays sequentially, so its amortized cost stays flat)")
}

// --- adaptive batch sizing ------------------------------------------------

// autoRow is one algorithm's AutoBatcher run: the k trajectory the
// knee-search took and the overall amortized rounds it landed at.
type autoRow struct {
	Name      string  `json:"name"`
	Ks        []int   `json:"k_trajectory"`
	FinalK    int     `json:"final_k"`
	Amortized float64 `json:"amortized_rounds_per_update"`
}

// autoTable ingests the suite stream back to back through the bounds-only
// front door (see boundsOnlyPipeline) with an AutoBatcher sizing the
// chunks, so every chunk but the tail is a full k the knee search sees.
func autoTable(n, nUpdates int, seed int64) []autoRow {
	arrivals := dmpc.ArrivalsNow(dmpc.UpdateOps(suiteStream(n, nUpdates, seed)))
	var rows []autoRow
	for _, rn := range arrivalRunners(n, nUpdates, seed) { // the same two facade structures
		p := rn.mk()
		ab := dmpc.NewAutoBatcher(dmpc.AutoBatcherConfig{MaxK: 256})
		_, st := dmpc.Ingest(boundsOnlyPipeline{p}, arrivals, dmpc.IngestorConfig{Auto: ab})
		// A full chunk holds exactly the k it was cut at; the tail was cut
		// short of the final k.
		ks := make([]int, len(st.Windows))
		for i, w := range st.Windows {
			ks[i] = w.Ops
		}
		if st.FlushTail > 0 {
			ks[len(ks)-1] = ab.K()
		}
		rows = append(rows, autoRow{
			Name: rn.name, Ks: ks, FinalK: ab.K(),
			Amortized: float64(st.Rounds) / float64(st.Updates),
		})
	}
	return rows
}

func printAutoTable(rows []autoRow) {
	printRows("\nAdaptive batch sizing (dmpc.AutoBatcher knee search):",
		"Algorithm\tk trajectory\tfinal k\tamortized rounds/upd", "%s\t%v\t%d\t%.2f", rows,
		func(r autoRow) []any { return []any{r.Name, r.Ks, r.FinalK, r.Amortized} },
		"(after a warmup the driver doubles k while probe windows stay within the",
		" noise margin of the best seen, settles at the knee on two bad windows, and",
		" halves k whenever the cluster-wide word budget is exceeded)")
}

// --- unified op pipeline: in-wave reads vs quiescence --------------------

// mixedRow compares the unified op pipeline (reads sequenced into the
// update waves) against the quiescence split on the same mixed op stream,
// chunked at k ops. The split answers the *same* queries at the *same*
// stream positions — the only way to do that without in-wave scheduling is
// to cut each chunk at its read runs: every maximal update run and every
// maximal read run is its own ApplyOps window, so each read run waits for
// the preceding writes to quiesce. (Moving all reads to the chunk boundary
// would be cheaper but answers different queries — chunk-end state instead
// of stream-position state — so it is not a baseline for the same
// workload.) Both sides therefore return bit-identical Results; only the
// round bill differs. FreeRides counts the reads that shared an
// update-bearing wave — the reads whose rounds cost nothing.
type mixedRow struct {
	Name            string  `json:"name"`
	K               int     `json:"k"`
	Ops             int     `json:"ops"`
	Updates         int     `json:"updates"`
	Queries         int     `json:"queries"`
	InwavePerOp     float64 `json:"inwave_rounds_per_op"`
	QuiescencePerOp float64 `json:"quiescence_rounds_per_op"`
	Ratio           float64 `json:"inwave_over_quiescence"`
	QueryHalf       int     `json:"inwave_query_half_rounds"`
	FreeRides       int     `json:"reads_riding_update_waves"`
}

// mixedRunner builds fresh instances of one algorithm for the two sides
// of the comparison.
type mixedRunner struct {
	name    string
	mkQuery func(rng *rand.Rand) graph.Op
	mk      func() applyOps
}

func mixedRunners(n, capEdges int) []mixedRunner {
	// amm is absent on purpose: its reads require settle-and-cycle
	// barriers (no bit-equivalence contract), so it has no in-wave read
	// path to compare — its Pipeline front door exists for API uniformity.
	connected := func(rng *rand.Rand) graph.Op { return graph.OpQConnected(rng.Intn(n), rng.Intn(n)) }
	return []mixedRunner{
		{"Connected comps (§5)", connected, func() applyOps {
			return newDyncon(dyncon.Config{N: n, Mode: dyncon.CC, ExpectedEdges: capEdges}).ApplyOps
		}},
		{"(1+ε)-MST (§5.1)", connected, func() applyOps {
			return newDyncon(dyncon.Config{N: n, Mode: dyncon.MST, Eps: 0.25, ExpectedEdges: capEdges}).ApplyOps
		}},
		{"Maximal matching (§3)",
			func(rng *rand.Rand) graph.Op { return graph.OpQMateOf(rng.Intn(n)) },
			func() applyOps { return newDMM(dmm.Config{N: n, CapEdges: capEdges}).ApplyOps }},
	}
}

// measureMixedPipeline runs one op stream through both sides at chunk
// size k and reports the amortized rounds per op of each.
func measureMixedPipeline(mr mixedRunner, ops []graph.Op, k int) mixedRow {
	row := mixedRow{Name: mr.name, K: k, Ops: len(ops)}
	row.Updates, row.Queries = graph.CountOps(ops)

	inwave := mr.mk()
	var inRounds int
	for _, chunk := range graph.SplitOps(ops, k) {
		_, m := inwave(chunk)
		inRounds += m.Rounds()
		row.QueryHalf += m.Queries.Rounds
		for _, w := range m.Waves {
			if w.Updates > 0 {
				row.FreeRides += w.Queries
			}
		}
	}
	row.InwavePerOp = float64(inRounds) / float64(len(ops))

	split := mr.mk()
	var splitRounds int
	for _, chunk := range graph.SplitOps(ops, k) {
		// Position-preserving quiescence split: one window per maximal
		// update run and per maximal read run.
		for i := 0; i < len(chunk); {
			j := i
			for j < len(chunk) && chunk[j].IsQuery() == chunk[i].IsQuery() {
				j++
			}
			_, m := split(chunk[i:j])
			splitRounds += m.Rounds()
			i = j
		}
	}
	row.QuiescencePerOp = float64(splitRounds) / float64(len(ops))
	row.Ratio = row.InwavePerOp / row.QuiescencePerOp
	return row
}

// mixedTable measures the unified pipeline against the quiescence split
// at op-chunk sizes k ∈ {8, 64, 256} over one mixed stream per algorithm.
func mixedTable(n, nUpdates int, seed int64) []mixedRow {
	stream := suiteStream(n, nUpdates, seed)
	var rows []mixedRow
	for _, mr := range mixedRunners(n, 6*n) {
		ops := graph.MixedStream(stream, readFrac, mr.mkQuery, rand.New(rand.NewSource(seed+200)))
		last := 0
		for _, k := range []int{8, 64, 256} {
			if k = min(k, len(ops)); k != last { // a short stream caps k; measure each k once
				rows = append(rows, measureMixedPipeline(mr, ops, k))
				last = k
			}
		}
	}
	return rows
}

func printMixedTable(rows []mixedRow) {
	printRows(fmt.Sprintf("\nUnified op pipeline: in-wave reads vs quiescence split (readfrac %.2f):", readFrac),
		"Algorithm\tk\tops\tinwave r/op\tquiescence r/op\tratio\tquery-half rounds\tfree-riding reads",
		"%s\t%d\t%d\t%.3f\t%.3f\t%.2f\t%d\t%d/%d", rows,
		func(r mixedRow) []any {
			return []any{r.Name, r.K, r.Ops, r.InwavePerOp, r.QuiescencePerOp, r.Ratio, r.QueryHalf, r.FreeRides, r.Queries}
		},
		"(both sides answer the same reads at the same stream positions; the split",
		" must quiesce at every read run, while the unified pipeline precedence-colors",
		" the reads into the update waves — a read sharing an update's wave costs zero",
		" extra rounds, which is where the ratio comes from)")
}

// readRow is one (algorithm, k) cell of the read-only-window table: after
// the batch stream has been applied, 128 queries are answered in
// read-only ApplyOps windows of k. A window's reads share its gather
// rounds, so rounds/query falls from ~2 (§5) resp. 1 (§3) toward 2/k resp.
// 1/k — the read-side mirror of the batch table.
type readRow struct {
	Name           string  `json:"name"`
	K              int     `json:"k"`
	Queries        int     `json:"queries"`
	RoundsPerQuery float64 `json:"rounds_per_query"`
	MeanWords      float64 `json:"mean_words_per_round"`
}

func readTable(n, nUpdates int, seed int64) []readRow {
	stream := suiteStream(n, nUpdates, seed)
	runners := append(mixedRunners(n, 6*n), mixedRunner{"(2+ε)-approx matching (§6)",
		func(rng *rand.Rand) graph.Op { return graph.OpQMateOf(rng.Intn(n)) },
		func() applyOps { return newAMM(amm.Config{N: n, Seed: seed}).ApplyOps }})
	var rows []readRow
	for _, mr := range runners {
		for _, k := range []int{1, 8, 64} {
			apply := mr.mk()
			for _, b := range graph.Chunk(stream, batchK) {
				apply(graph.UpdateOps(b))
			}
			rng := rand.New(rand.NewSource(seed + 600))
			r := readRow{Name: mr.name, K: k}
			var rounds, words int
			for q := 0; q < 128; q += k {
				ops := make([]graph.Op, k)
				for j := range ops {
					ops[j] = mr.mkQuery(rng)
				}
				_, st := apply(ops)
				r.Queries += st.Queries.Ops
				rounds += st.Queries.Rounds
				words += st.Queries.SumWords
			}
			r.RoundsPerQuery, r.MeanWords = per(rounds, r.Queries), per(words, rounds)
			rows = append(rows, r)
		}
	}
	return rows
}

func printReadTable(rows []readRow) {
	printRows("\nRead-only windows (k queries per ApplyOps window, after the batch stream):",
		"Algorithm\tk\tqueries\trounds/query\twords/round (mean)", "%s\t%d\t%d\t%.3f\t%.1f", rows,
		func(r readRow) []any { return []any{r.Name, r.K, r.Queries, r.RoundsPerQuery, r.MeanWords} })
}

// --- the suite document ----------------------------------------------------

// benchReport is the dmpcbench/v4 document: the flags that shape the
// streams, then one block per table. Every field is a deterministic
// function of (n, updates, seed, wallmax) except wallclock's
// allocs_per_round, which jitters by a GC clock; time is printed, never
// recorded.
type benchReport struct {
	Schema  string `json:"schema"`
	N       int    `json:"n"`
	Updates int    `json:"updates"`
	Seed    int64  `json:"seed"`
	WallMax int    `json:"wallmax"`
	// Backend records the -backend flag every table but treedp and
	// wallclock ran on; those two always measure both backends.
	Backend string `json:"backend"`

	Table1      []table1Row      `json:"table1"`
	Static      []staticRow      `json:"static"`
	Batch       []batchRow       `json:"batch"`
	Auto        []autoRow        `json:"autobatch"`
	Mixed       []mixedRow       `json:"mixed"`
	ReadOnly    []readRow        `json:"read_only"`
	Arrivals    []arrivalRow     `json:"arrivals"`
	LatencyAuto []latencyAutoRow `json:"latency_autobatch"`
	Tenants     []tenantRow      `json:"tenants"`
	TreeDP      []treedpRow      `json:"treedp"`
	Sweep       []sweepRow       `json:"sweep"`
	Wall        []wallRow        `json:"wallclock"`
}

// measureSuite runs every table.
func measureSuite(n, updates int, seed int64, wallMax int) benchReport {
	return benchReport{
		Schema: "dmpcbench/v4", N: n, Updates: updates, Seed: seed, WallMax: wallMax,
		Backend:     benchBackend.String(),
		Table1:      table(n, updates, seed),
		Static:      staticTable(n, seed),
		Batch:       batchTable(n, updates, seed),
		Auto:        autoTable(n, updates, seed),
		Mixed:       mixedTable(n, updates, seed),
		ReadOnly:    readTable(n, updates, seed),
		Arrivals:    arrivalTable(n, updates, seed),
		LatencyAuto: latencyAutoTable(n, updates, seed),
		Tenants:     tenantTable(n, updates, seed),
		TreeDP:      treedpTable(n, updates, seed),
		Sweep:       sweepRows(seed),
		Wall:        wallTable(seed, wallMax),
	}
}

func (rep benchReport) print() {
	printTable(rep)
	printStatic(rep.Static)
	printBatchTable(rep.Batch)
	printAutoTable(rep.Auto)
	printMixedTable(rep.Mixed)
	printReadTable(rep.ReadOnly)
	printArrivalTable(rep.Arrivals, rep.LatencyAuto)
	printTenantTable(rep.Tenants)
	printTreeDPTable(rep.TreeDP)
	printSweep(rep.Sweep)
	printWallTable(rep.Wall)
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

// --- baseline checks -------------------------------------------------------

// cell is one gated value and the key of the row it came from.
type cell struct {
	key string
	v   float64
}

// gate is a check on the cells of one table. Every gated row of the
// snapshot must find its measured partner and vice versa, and every cell
// must equal the snapshot's: the suite is deterministic for fixed flags
// and seed, so any difference — an improvement included, which would
// otherwise leave a stale baseline for a later regression to hide behind —
// is a code change and wants a re-pin. The one budget gate is the
// exception: allocs/round jitters with the GC clock, so there the measured
// value may only not exceed the snapshot's by more than allocsTol
// (relative) plus allocsSlack (absolute).
type gate struct {
	name   string
	budget bool
	cells  func(benchReport) []cell
}

const (
	allocsTol   = 0.10
	allocsSlack = 16
)

// block gates a whole table: one cell per exported numeric field of each
// row (slice elements by index), keyed by the row's name. Unexported
// fields are printed only, never recorded.
func block[T any](rows []T, name func(T) string) []cell {
	var cs []cell
	for _, r := range rows {
		v := reflect.ValueOf(r)
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue
			}
			key := name(r) + " " + v.Type().Field(i).Name
			switch f := v.Field(i); {
			case f.CanInt():
				cs = append(cs, cell{key, float64(f.Int())})
			case f.CanFloat():
				cs = append(cs, cell{key, f.Float()})
			case f.Kind() == reflect.Slice:
				for j := 0; j < f.Len(); j++ {
					cs = append(cs, cell{fmt.Sprintf("%s[%d]", key, j), float64(f.Index(j).Int())})
				}
			}
		}
	}
	return cs
}

// column extracts one cell per row of a table.
func column[T any](rows []T, f func(T) (key string, v float64)) []cell {
	var cs []cell
	for _, r := range rows {
		k, v := f(r)
		cs = append(cs, cell{k, v})
	}
	return cs
}

func wallKey(w wallRow) string { return fmt.Sprintf("%s n=%d %s", w.Name, w.N, w.Backend) }

var gates = []gate{
	{"table1: every cell", false, func(r benchReport) []cell {
		return block(r.Table1, func(t table1Row) string { return t.Name })
	}},
	{"static: every cell", false, func(r benchReport) []cell {
		return block(r.Static, func(t staticRow) string { return t.Name })
	}},
	{"batch: every cell", false, func(r benchReport) []cell {
		return block(r.Batch, func(b batchRow) string { return fmt.Sprintf("%s k=%d", b.Name, b.K) })
	}},
	{"autobatch: every cell", false, func(r benchReport) []cell {
		return block(r.Auto, func(a autoRow) string { return a.Name })
	}},
	{"mixed: every cell", false, func(r benchReport) []cell {
		return block(r.Mixed, func(m mixedRow) string { return fmt.Sprintf("%s k=%d", m.Name, m.K) })
	}},
	{"read_only: every cell", false, func(r benchReport) []cell {
		return block(r.ReadOnly, func(q readRow) string { return fmt.Sprintf("%s k=%d", q.Name, q.K) })
	}},
	{"arrivals: every cell", false, func(r benchReport) []cell {
		return block(r.Arrivals, func(a arrivalRow) string { return fmt.Sprintf("%s %s k=%d", a.Name, a.Gen, a.K) })
	}},
	{"latency_autobatch: every cell", false, func(r benchReport) []cell {
		return block(r.LatencyAuto, func(l latencyAutoRow) string { return fmt.Sprintf("%s %s", l.Name, l.Gen) })
	}},
	{"tenants: every cell", false, func(r benchReport) []cell {
		return block(r.Tenants, func(t tenantRow) string { return t.Name })
	}},
	{"treedp: every cell", false, func(r benchReport) []cell {
		return block(r.TreeDP, func(t treedpRow) string { return fmt.Sprintf("%s k=%d %s", t.Name, t.K, t.Backend) })
	}},
	{"sweep: every cell", false, func(r benchReport) []cell {
		return block(r.Sweep, func(w sweepRow) string { return fmt.Sprintf("n=%d", w.N) })
	}},
	{"wallclock: rounds/op", false, func(r benchReport) []cell {
		return column(r.Wall, func(w wallRow) (string, float64) { return wallKey(w), w.RoundsPerOp })
	}},
	// The pooled round engine's allocation bill is a code property, not a
	// machine property; the budget absorbs GC-clock jitter.
	{"wallclock: allocs/round", true, func(r benchReport) []cell {
		return column(r.Wall, func(w wallRow) (string, float64) { return wallKey(w), w.AllocsPerRound })
	}},
}

func (g gate) check(rep, want benchReport) error {
	measured := g.cells(rep)
	got := make(map[string]float64, len(measured))
	for _, c := range measured {
		got[c.key] = c.v
	}
	for _, c := range g.cells(want) {
		v, ok := got[c.key]
		if !ok {
			return fmt.Errorf("snapshot row %q was not measured", c.key)
		}
		delete(got, c.key)
		switch {
		case !g.budget && v != c.v:
			return fmt.Errorf("%s: %v differs from snapshot %v", c.key, v, c.v)
		case g.budget && v > c.v*(1+allocsTol)+allocsSlack:
			return fmt.Errorf("%s: %.3f is over snapshot %.3f by more than %.0f%% + %d", c.key, v, c.v, allocsTol*100, allocsSlack)
		}
	}
	for _, c := range measured {
		if _, unmatched := got[c.key]; unmatched {
			return fmt.Errorf("measured row %q is not in the snapshot", c.key)
		}
	}
	return nil
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
				return fmt.Errorf("k=%d %s: %.3f rounds/query", t.K, t.Backend, t.DPRoundsPerQuery)
			}
		}
		return nil
	}},
	{"treedp: DP answers match across backends", func(r benchReport) error {
		for _, t := range r.TreeDP {
			if !t.AnswersMatch {
				return fmt.Errorf("%s k=%d: sim and parallel disagree — the determinism rule is broken", t.Name, t.K)
			}
		}
		return nil
	}},
	{"wallclock: rounds/op bit-equal across backends", func(r benchReport) error {
		return wallPairs(r, func(sim, par wallRow) error {
			if par.RoundsPerOp != sim.RoundsPerOp {
				return fmt.Errorf("%s n=%d: parallel %.3f vs sim %.3f — a backend changed the computation, not just its speed", par.Name, par.N, par.RoundsPerOp, sim.RoundsPerOp)
			}
			return nil
		})
	}},
}

// wallPairs calls f on every (sim, parallel) pair of wallclock rows; a row
// without its partner is an error.
func wallPairs(r benchReport, f func(sim, par wallRow) error) error {
	rows := map[string]wallRow{}
	for _, w := range r.Wall {
		rows[wallKey(w)] = w
	}
	partner := map[string]string{"sim": "parallel", "parallel": "sim"}
	for _, w := range r.Wall {
		other := w
		other.Backend = partner[w.Backend]
		o, ok := rows[wallKey(other)]
		if !ok {
			return fmt.Errorf("%s has no %s partner", wallKey(w), other.Backend)
		}
		if w.Backend == "sim" {
			if err := f(w, o); err != nil {
				return err
			}
		}
	}
	return nil
}

// verdict is one named check's outcome.
type verdict struct {
	name string
	err  error
}

// checkBaseline judges a run against a committed snapshot of the same
// suite: first that both measured the same streams, then every gate and
// every invariant, each reported under its own name.
func checkBaseline(rep, want benchReport) []verdict {
	if want.Schema != rep.Schema || want.N != rep.N || want.Updates != rep.Updates || want.Seed != rep.Seed || want.WallMax != rep.WallMax {
		return []verdict{{"same suite", fmt.Errorf("snapshot is %s -n %d -updates %d -seed %d -wallmax %d; this run is %s -n %d -updates %d -seed %d -wallmax %d",
			want.Schema, want.N, want.Updates, want.Seed, want.WallMax, rep.Schema, rep.N, rep.Updates, rep.Seed, rep.WallMax)}}
	}
	vs := []verdict{{"same suite", nil}}
	for _, g := range gates {
		vs = append(vs, verdict{g.name, g.check(rep, want)})
	}
	for _, iv := range invariants {
		vs = append(vs, verdict{iv.name, iv.check(rep)})
	}
	return vs
}

func printTable(rep benchReport) {
	printRows(fmt.Sprintf("DMPC dynamic algorithms — Table 1 reproduction (n=%d, %d updates, seed %d)\n", rep.N, rep.Updates, rep.Seed),
		"Algorithm\tPaper bound\trounds/upd (mean)\trounds (wc)\tmach/round (wc)\twords/round (mean)\twords (wc)\tentropy (bits)",
		"%s\t%s\t%.2f\t%d\t%d\t%.1f\t%d\t%.2f", rep.Table1,
		func(r table1Row) []any {
			return []any{r.Name, r.Claim, r.MeanRounds, r.WorstRounds, r.WorstMachines, r.MeanWords, r.WorstWords, r.Entropy}
		},
		fmt.Sprintf("\n(N = n + 2m ≈ %d; √N ≈ %.0f)", 13*rep.N, math.Sqrt(13*float64(rep.N))))
}

// staticRow is one recompute-from-scratch baseline, per recomputation.
type staticRow struct {
	Name          string `json:"name"`
	Rounds        int    `json:"rounds_per_recompute"`
	WorstMachines int    `json:"wc_machines_per_round"`
	TotalWords    int    `json:"total_words"`
}

func staticTable(n int, seed int64) []staticRow {
	g := graph.GNM(n, 5*n, 50, rand.New(rand.NewSource(seed)))
	_, cc := staticmpc.ConnectedComponents(g, 0, 0)
	_, mm := staticmpc.MaximalMatching(g, 0, 0, seed)
	_, mf := staticmpc.MinSpanningForest(g, 8)
	return []staticRow{
		{"Label-prop CC (O(log n) rounds)", cc.Rounds, cc.MaxActive, cc.SumWords},
		{"Proposal matching (O(log n) w.h.p.)", mm.Rounds, mm.MaxActive, mm.SumWords},
		{"Filtering MSF [26]", mf.Rounds, mf.MaxActive, mf.SumWords},
	}
}

func printStatic(rows []staticRow) {
	printRows("\nStatic recompute-from-scratch baselines (per recomputation):",
		"Baseline\trounds\tmach/round (wc)\twords total", "%s\t%d\t%d\t%d", rows,
		func(r staticRow) []any { return []any{r.Name, r.Rounds, r.WorstMachines, r.TotalWords} })
}

// sweepRow is one input size of the §5 scaling sweep.
type sweepRow struct {
	N             int     `json:"n"`
	WorstRounds   int     `json:"wc_rounds_per_update"`
	WorstMachines int     `json:"wc_machines_per_round"`
	WorstWords    int     `json:"wc_words_per_round"`
	WordsPerSqrtN float64 `json:"wc_words_per_sqrt_n"`
}

func sweepRows(seed int64) []sweepRow {
	var rows []sweepRow
	for _, n := range []int{64, 128, 256, 512, 1024} {
		d := newDyncon(dyncon.Config{N: n, Mode: dyncon.CC, ExpectedEdges: 5 * n})
		t := replay(graph.RandomStream(n, 300, 0.55, 1, rand.New(rand.NewSource(seed))), 1, window(d.ApplyOps))
		rows = append(rows, sweepRow{
			N: n, WorstRounds: t.worstRounds, WorstMachines: t.MaxActive, WorstWords: t.MaxWords,
			WordsPerSqrtN: float64(t.MaxWords) / math.Sqrt(11*float64(n)),
		})
	}
	return rows
}

func printSweep(rows []sweepRow) {
	printRows("\nScaling sweep (§5 connectivity): words/round vs N",
		"n\trounds/upd (wc)\tmach/round (wc)\twords/round (wc)\twords/√N", "%d\t%d\t%d\t%d\t%.1f", rows,
		func(r sweepRow) []any {
			return []any{r.N, r.WorstRounds, r.WorstMachines, r.WorstWords, r.WordsPerSqrtN}
		},
		"(flat rounds and a roughly constant words/√N column are the paper's shape)")
}

// printRows prints one table: its title, the tab-separated header, one
// formatted line per row, then the notes.
func printRows[T any](title, header, format string, rows []T, cells func(T) []any, notes ...string) {
	fmt.Println(title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, header)
	for _, r := range rows {
		fmt.Fprintf(w, format+"\n", cells(r)...)
	}
	w.Flush()
	for _, n := range notes {
		fmt.Println(n)
	}
}

func fatal(code int, args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"dmpcbench:"}, args...)...)
	os.Exit(code)
}

func main() {
	n := flag.Int("n", 128, "number of vertices")
	updates := flag.Int("updates", 500, "updates per algorithm")
	seed := flag.Int64("seed", 1, "stream seed")
	backendFlag := flag.String("backend", "sim", "execution backend for the measurement tables: sim (deterministic oracle) or parallel (goroutine-per-machine runtime)")
	workers := flag.Int("workers", 0, "backend worker bound (0 = GOMAXPROCS); never changes rounds, only wall-clock time")
	wallMax := flag.Int("wallmax", 10_000, "largest n of the sim-vs-parallel ladder {128, 10^4, 10^5, 10^6} (BENCH_0015.json and CI stop at the default)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the measured section to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile, captured right after the measured section, to this file")
	asJSON := flag.Bool("json", false, "emit the measurements as one dmpcbench/v4 JSON document")
	baseline := flag.String("baseline", "", "committed dmpcbench/v4 snapshot (BENCH_0015.json) to judge the run against; one verdict line per named check, exit nonzero if any fails")
	flag.Parse()

	be, err := mpc.ParseBackend(*backendFlag)
	if err != nil {
		fatal(2, err)
	}
	benchBackend, benchWorkers = be, *workers
	var want benchReport
	if *baseline != "" {
		if want, err = readReport(*baseline); err != nil {
			fatal(2, err)
		}
	}

	// The profile window opens here and closes after the last table, so
	// the captures cover exactly the measurements (see the doc comment).
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(2, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(2, "cpuprofile:", err)
		}
	}
	rep := measureSuite(*n, *updates, *seed, *wallMax)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(2, err)
		}
		runtime.GC() // heap profile of live objects, not collectable garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(2, "memprofile:", err)
		}
		f.Close()
	}

	if *baseline != "" {
		failed := 0
		for _, v := range checkBaseline(rep, want) {
			if v.err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "FAIL  %s: %v\n", v.name, v.err)
			} else {
				fmt.Fprintf(os.Stderr, "ok    %s\n", v.name)
			}
		}
		if failed > 0 {
			fatal(1, fmt.Sprintf("bench regression vs %s: %d checks failed", *baseline, failed))
		}
		fmt.Fprintf(os.Stderr, "dmpcbench: every named check passes against %s\n", *baseline)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(1, err)
		}
		return
	}
	rep.print()
}
