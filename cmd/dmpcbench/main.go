// Command dmpcbench is the repo's one model-cost harness. Every run
// measures every table on a deterministic random update stream — Table 1
// of the paper (rounds per update, active machines and communicated words
// per round, communication entropy, next to the bound the paper claims,
// the §7 reductions and the filtering-MSF static recompute), the batch
// pipeline at k ∈ {1, 64}, in-wave reads against the quiescence split,
// read-only windows, streaming arrivals, tenant isolation, tree DP and the
// n-ladder (the five paper cores filled to E = 2n, then churned, at
// n ∈ {256, 1024, 4096}) — and emits them as text tables or, with -json,
// as one dmpcbench/v5 document (see benchReport; BENCH_0015.json is the
// committed one). It records model counts only: time and allocations are
// measured by bench/ and by the packages' own tests and benchmarks. Every
// paper core is built through the dmpc facade's constructors and driven
// through Pipeline.Apply, the path users run; only the §7 reductions and
// the static baseline, which the facade does not offer, are built from
// their packages.
//
// The judge is `go test ./cmd/dmpcbench`: TestSuiteMatchesSnapshot
// measures the suite at one and at four worker shards and requires every
// cell to equal BENCH_0015.json's and every invariant to hold.
//
// Usage:
//
//	dmpcbench [-n 128] [-updates 500] [-seed 1] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"text/tabwriter"

	"dmpc"
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

// runner executes one batch of updates and returns the update half it was
// billed. A per-update measurement is a batch of one.
type runner func(graph.Batch) mpc.HalfStats

// window runs each batch as one write-only Apply window (a read-free
// window is its update half).
func window(p dmpc.Pipeline) runner {
	return func(b graph.Batch) mpc.HalfStats {
		_, st := p.Apply(graph.UpdateOps(b))
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

// ammCycle is §6's fixed-schedule per-update driver (see
// AlmostMaximalMatching.Insert).
func ammCycle(m *dmpc.AlmostMaximalMatching) runner {
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

// benchWorkers is the worker count every structure of the suite is built
// at: every structure is built by the facade's constructors with
// benchOpts, and runs the Apply path users run. The command runs inline;
// the snapshot test reruns the suite at four shards, which must change no
// cell.
var benchWorkers int

// benchOpts is benchWorkers as facade options.
func benchOpts() []dmpc.Option {
	return []dmpc.Option{dmpc.WithWorkers(benchWorkers)}
}

// algs lists the algorithms at n vertices and declared edge capacity
// capEdges: the five paper cores first (§3, §4, §6, §5, §5.1), then the
// three §7 reductions.
func algs(n, capEdges int, seed int64) []alg {
	windowed := func(p dmpc.Pipeline) inst { w := window(p); return inst{w, w, p.Cluster()} }
	red := func(t reduction.Target) inst {
		sim := reduction.NewSim(8, 1<<18)
		run := perUpdate(reduction.NewWrapped(sim, t).Update)
		return inst{run, run, sim.Cluster()}
	}
	return []alg{
		{"Maximal matching (§3)", "O(1) r, O(1) mach, O(√N) words",
			func() inst { return windowed(dmpc.NewMaximalMatching(n, capEdges, benchOpts()...)) }},
		{"3/2-approx matching (§4)", "O(1) r, O(n/√N) mach, O(√N) words",
			func() inst { return windowed(dmpc.NewThreeHalvesMatching(n, capEdges, benchOpts()...)) }},
		{"(2+ε)-approx matching (§6)", "O(1) r, Õ(1) mach, Õ(1) words", func() inst {
			m := dmpc.NewAlmostMaximalMatching(n, 0, seed, benchOpts()...)
			return inst{ammCycle(m), window(m), m.Cluster()}
		}},
		{"Connected comps (§5)", "O(1) r, O(√N) mach, O(√N) words",
			func() inst { return windowed(dmpc.NewConnectivity(n, capEdges, benchOpts()...)) }},
		{"(1+ε)-MST (§5.1)", "O(1) r, O(√N) mach, O(√N) words",
			func() inst { return windowed(dmpc.NewMST(n, 0.25, capEdges, benchOpts()...)) }},
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
	for i, a := range algs(n, 6*n, seed) {
		stream := graph.RandomStream(n, nUpdates, 0.55, 50, rand.New(rand.NewSource(seed+int64(i)+1)))
		in := a.mk()
		rows = append(rows, measure(a.name, a.claim, stream, in.each, in.cl))
		in.cl.Close()
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

// suiteStream is the one update stream the batch, mixed and read-only
// tables all replay, so their round counts are comparable.
func suiteStream(n, nUpdates int, seed int64) []graph.Update {
	return graph.RandomStream(n, nUpdates, 0.55, 50, rand.New(rand.NewSource(seed+100)))
}

// batchTable measures the cores and one §7 reduction at k=1 (the
// per-update driver) and k=batchK over the same stream, a fresh instance
// per k so both see identical starting states.
func batchTable(n, nUpdates int, seed int64) []batchRow {
	stream := suiteStream(n, nUpdates, seed)
	var rows []batchRow
	for _, a := range algs(n, 6*n, seed)[:6] {
		each, batch := a.mk(), a.mk()
		rows = append(rows, measureBatch(a.name, stream, 1, each.each), measureBatch(a.name, stream, batchK, batch.batch))
		each.cl.Close()
		batch.cl.Close()
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

// --- unified op pipeline: in-wave reads vs quiescence --------------------

// mixedRow compares the unified op pipeline (reads sequenced into the
// update waves) against the quiescence split on the same mixed op stream,
// chunked at k ops. The split answers the *same* queries at the *same*
// stream positions — the only way to do that without in-wave scheduling is
// to cut each chunk at its read runs: every maximal update run and every
// maximal read run is its own Apply window, so each read run waits for
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
	mk      func() dmpc.Pipeline
}

func mixedRunners(n, capEdges int) []mixedRunner {
	// amm is absent on purpose: its reads require settle-and-cycle
	// barriers (no bit-equivalence contract), so it has no in-wave read
	// path to compare — its Pipeline front door exists for API uniformity.
	connected := func(rng *rand.Rand) graph.Op { return graph.OpQConnected(rng.Intn(n), rng.Intn(n)) }
	return []mixedRunner{
		{"Connected comps (§5)", connected,
			func() dmpc.Pipeline { return dmpc.NewConnectivity(n, capEdges, benchOpts()...) }},
		{"(1+ε)-MST (§5.1)", connected,
			func() dmpc.Pipeline { return dmpc.NewMST(n, 0.25, capEdges, benchOpts()...) }},
		{"Maximal matching (§3)",
			func(rng *rand.Rand) graph.Op { return graph.OpQMateOf(rng.Intn(n)) },
			func() dmpc.Pipeline { return dmpc.NewMaximalMatching(n, capEdges, benchOpts()...) }},
	}
}

// measureMixedPipeline runs one op stream through both sides at chunk
// size k and reports the amortized rounds per op of each.
func measureMixedPipeline(mr mixedRunner, ops []graph.Op, k int) mixedRow {
	row := mixedRow{Name: mr.name, K: k, Ops: len(ops)}
	row.Updates, row.Queries = graph.CountOps(ops)

	inwave := mr.mk()
	defer inwave.Close()
	var inRounds int
	for _, chunk := range graph.SplitOps(ops, k) {
		_, m := inwave.Apply(chunk)
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
	defer split.Close()
	var splitRounds int
	for _, chunk := range graph.SplitOps(ops, k) {
		// Position-preserving quiescence split: one window per maximal
		// update run and per maximal read run.
		for i := 0; i < len(chunk); {
			j := i
			for j < len(chunk) && chunk[j].IsQuery() == chunk[i].IsQuery() {
				j++
			}
			_, m := split.Apply(chunk[i:j])
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
// read-only Apply windows of k. A window's reads share its gather
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
		func() dmpc.Pipeline { return dmpc.NewAlmostMaximalMatching(n, 0, seed, benchOpts()...) }})
	var rows []readRow
	for _, mr := range runners {
		for _, k := range []int{1, 8, 64} {
			c := mr.mk()
			for _, b := range graph.Chunk(stream, batchK) {
				c.Apply(graph.UpdateOps(b))
			}
			rng := rand.New(rand.NewSource(seed + 600))
			r := readRow{Name: mr.name, K: k}
			var rounds, words int
			for q := 0; q < 128; q += k {
				ops := make([]graph.Op, k)
				for j := range ops {
					ops[j] = mr.mkQuery(rng)
				}
				_, st := c.Apply(ops)
				r.Queries += st.Queries.Ops
				rounds += st.Queries.Rounds
				words += st.Queries.SumWords
			}
			c.Close()
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

// benchReport is the dmpcbench/v5 document: the flags that shape the
// streams, then one block per table. Every cell is a model count, a
// deterministic function of (n, updates, seed) at any worker count, so two
// runs with the same flags write the same document.
type benchReport struct {
	Schema  string `json:"schema"`
	N       int    `json:"n"`
	Updates int    `json:"updates"`
	Seed    int64  `json:"seed"`

	Table1   []table1Row  `json:"table1"`
	Static   []staticRow  `json:"static"`
	Batch    []batchRow   `json:"batch"`
	Mixed    []mixedRow   `json:"mixed"`
	ReadOnly []readRow    `json:"read_only"`
	Arrivals []arrivalRow `json:"arrivals"`
	Tenants  []tenantRow  `json:"tenants"`
	TreeDP   []treedpRow  `json:"treedp"`
	Ladder   []ladderRow  `json:"ladder"`
}

// measureSuite runs every table.
func measureSuite(n, updates int, seed int64) benchReport {
	return benchReport{
		Schema: "dmpcbench/v5", N: n, Updates: updates, Seed: seed,
		Table1:   table(n, updates, seed),
		Static:   staticTable(n, seed),
		Batch:    batchTable(n, updates, seed),
		Mixed:    mixedTable(n, updates, seed),
		ReadOnly: readTable(n, updates, seed),
		Arrivals: arrivalTable(n, updates, seed),
		Tenants:  tenantTable(n, updates, seed),
		TreeDP:   treedpTable(n, updates, seed),
		Ladder:   ladderTable(seed),
	}
}

func (rep benchReport) print() {
	printTable(rep)
	printStatic(rep.Static)
	printBatchTable(rep.Batch)
	printMixedTable(rep.Mixed)
	printReadTable(rep.ReadOnly)
	printArrivalTable(rep.Arrivals)
	printTenantTable(rep.Tenants)
	printTreeDPTable(rep.TreeDP)
	printLadder(rep.Ladder)
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

// staticRow is the recompute-from-scratch baseline, per recomputation.
type staticRow struct {
	Name          string `json:"name"`
	Rounds        int    `json:"rounds_per_recompute"`
	WorstMachines int    `json:"wc_machines_per_round"`
	TotalWords    int    `json:"total_words"`
}

func staticTable(n int, seed int64) []staticRow {
	g := graph.GNM(n, 5*n, 50, rand.New(rand.NewSource(seed)))
	_, mf := staticmpc.MinSpanningForest(g, 8)
	return []staticRow{{"Filtering MSF [26]", mf.Rounds, mf.MaxActive, mf.SumWords}}
}

func printStatic(rows []staticRow) {
	printRows("\nStatic recompute-from-scratch baseline (per recomputation):",
		"Baseline\trounds\tmach/round (wc)\twords total", "%s\t%d\t%d\t%d", rows,
		func(r staticRow) []any { return []any{r.Name, r.Rounds, r.WorstMachines, r.TotalWords} })
}

// ladderRow is one (core, n) rung of the n-ladder, on a graph that grows
// with n: the core is built with declared capacity E = 2n, filled to E
// edges in windows of batchK, then churned update by update for
// ladderChurn delete+insert pairs (the oldest edge out, a fresh one in),
// so the churn runs on a graph of exactly E edges. Rounds, machines and
// words are the churn's, per update; PeakMemOverS and Violations are the
// cluster's over the whole run, fill included. InputN is the input size
// N = n + 2E the paper's O(√N) bounds are stated in.
type ladderRow struct {
	Name            string  `json:"name"`
	N               int     `json:"n"`
	Mu              int     `json:"mu"`
	S               int     `json:"S_words"`
	InputN          int     `json:"N_words"`
	Ops             int     `json:"ops"`
	RoundsPerUpdate float64 `json:"rounds_per_update"`
	WorstMachines   int     `json:"wc_machines_per_round"`
	WorstWords      int     `json:"wc_words_per_round"`
	WordsPerSqrtN   float64 `json:"wc_words_per_sqrt_n"`
	PeakMemOverS    float64 `json:"peak_mem_over_S"`
	Violations      int     `json:"violations"`
}

// ladderChurn is the number of delete+insert pairs each rung churns.
const ladderChurn = 256

// ladderTable measures the five paper cores at every rung, each on the
// rung's one fill-then-churn stream.
func ladderTable(seed int64) []ladderRow {
	var rows []ladderRow
	for _, n := range []int{256, 1024, 4096} {
		e := 2 * n
		bigN := n + 2*e
		stream := graph.SlidingWindow(n, e, e+2*ladderChurn, 50, rand.New(rand.NewSource(seed+800)))
		for _, a := range algs(n, e, seed)[:5] {
			in := a.mk()
			replay(stream[:e], batchK, in.batch)
			t := replay(stream[e:], 1, in.each)
			st, mu, s := in.cl.Stats(), in.cl.Machines(), in.cl.MemWords()
			in.cl.Close()
			rows = append(rows, ladderRow{
				Name: a.name, N: n, Mu: mu, S: s, InputN: bigN, Ops: t.Ops,
				RoundsPerUpdate: per(t.Rounds, t.Ops), WorstMachines: t.MaxActive, WorstWords: t.MaxWords,
				WordsPerSqrtN: float64(t.MaxWords) / math.Sqrt(float64(bigN)),
				PeakMemOverS:  per(st.PeakMemWords, s), Violations: st.Violations,
			})
		}
	}
	return rows
}

func printLadder(rows []ladderRow) {
	printRows("\nn-ladder (paper cores filled to E = 2n, then churned): the Table 1 bounds vs N",
		"Algorithm\tn\tµ\tS\tN\tops\trounds/upd\tmach/round (wc)\twords/round (wc)\twords/√N\tpeak mem/S\tviolations",
		"%s\t%d\t%d\t%d\t%d\t%d\t%.2f\t%d\t%d\t%.2f\t%.2f\t%d", rows,
		func(r ladderRow) []any {
			return []any{r.Name, r.N, r.Mu, r.S, r.InputN, r.Ops, r.RoundsPerUpdate, r.WorstMachines,
				r.WorstWords, r.WordsPerSqrtN, r.PeakMemOverS, r.Violations}
		},
		"(per-update columns are the churn's; peak mem/S and violations span fill and churn.",
		" Flat rounds/upd and words/√N, and peak mem/S <= 1 with no violations, are the",
		" paper's shape; the table reports and does not gate)")
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

func main() {
	n := flag.Int("n", 128, "number of vertices")
	updates := flag.Int("updates", 500, "updates per algorithm")
	seed := flag.Int64("seed", 1, "stream seed")
	asJSON := flag.Bool("json", false, "emit the measurements as one dmpcbench/v5 JSON document")
	flag.Parse()

	rep := measureSuite(*n, *updates, *seed)
	if !*asJSON {
		rep.print()
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "dmpcbench:", err)
		os.Exit(1)
	}
}
