// Command dmpcbench is the repo's one model-cost harness. Every run
// measures every table on a deterministic random update stream — Table 1
// of the paper (rounds per update, active machines and communicated words
// per round, communication entropy, next to the bound the paper claims,
// the §7 reductions and the static recompute baselines), the batch
// pipeline at k ∈ {1, 64}, the AutoBatcher's knee search, in-wave reads
// against the quiescence split, read-only windows, streaming arrivals,
// tenant isolation, tree DP, the §5 O(√N) sweep and the inline-vs-sharded
// ladder up to -wallmax — and emits them as text tables or, with -json,
// as one dmpcbench/v4 document (see benchReport; BENCH_0015.json is the
// committed one). It records model counts only: time and allocations are
// measured by bench/ and by the packages' own tests and benchmarks.
//
// The judge is `go test ./cmd/dmpcbench`: TestSuiteMatchesSnapshot
// measures the suite at one and at four worker shards and requires every
// cell to equal BENCH_0015.json's and every invariant to hold.
//
// Usage:
//
//	dmpcbench [-n 128] [-updates 500] [-seed 1] [-wallmax n] [-workers w] [-json]
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
	windowed := func(apply applyOps, cl *mpc.Cluster) inst { w := window(apply); return inst{w, w, cl} }
	mm := func(threeHalves bool) inst {
		m := newDMM(dmm.Config{N: n, CapEdges: capEdges, ThreeHalves: threeHalves})
		return windowed(m.ApplyOps, m.Cluster())
	}
	cc := func(mode dyncon.Mode, eps float64) inst {
		d := newDyncon(dyncon.Config{N: n, Mode: mode, Eps: eps, ExpectedEdges: capEdges})
		return windowed(d.ApplyOps, d.Cluster())
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
		p.Close()
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
		" halves k whenever the cluster-wide word cap is exceeded)")
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

// core is one instance of an algorithm as the mixed and read-only tables
// drive it: its one execution path and its teardown.
type core interface {
	ApplyOps([]graph.Op) (graph.Results, mpc.MixedStats)
	Close()
}

// mixedRunner builds fresh instances of one algorithm for the two sides
// of the comparison.
type mixedRunner struct {
	name    string
	mkQuery func(rng *rand.Rand) graph.Op
	mk      func() core
}

func mixedRunners(n, capEdges int) []mixedRunner {
	// amm is absent on purpose: its reads require settle-and-cycle
	// barriers (no bit-equivalence contract), so it has no in-wave read
	// path to compare — its Pipeline front door exists for API uniformity.
	connected := func(rng *rand.Rand) graph.Op { return graph.OpQConnected(rng.Intn(n), rng.Intn(n)) }
	return []mixedRunner{
		{"Connected comps (§5)", connected, func() core {
			return newDyncon(dyncon.Config{N: n, Mode: dyncon.CC, ExpectedEdges: capEdges})
		}},
		{"(1+ε)-MST (§5.1)", connected, func() core {
			return newDyncon(dyncon.Config{N: n, Mode: dyncon.MST, Eps: 0.25, ExpectedEdges: capEdges})
		}},
		{"Maximal matching (§3)",
			func(rng *rand.Rand) graph.Op { return graph.OpQMateOf(rng.Intn(n)) },
			func() core { return newDMM(dmm.Config{N: n, CapEdges: capEdges}) }},
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
		_, m := inwave.ApplyOps(chunk)
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
			_, m := split.ApplyOps(chunk[i:j])
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
		func() core { return newAMM(amm.Config{N: n, Seed: seed}) }})
	var rows []readRow
	for _, mr := range runners {
		for _, k := range []int{1, 8, 64} {
			c := mr.mk()
			for _, b := range graph.Chunk(stream, batchK) {
				c.ApplyOps(graph.UpdateOps(b))
			}
			rng := rand.New(rand.NewSource(seed + 600))
			r := readRow{Name: mr.name, K: k}
			var rounds, words int
			for q := 0; q < 128; q += k {
				ops := make([]graph.Op, k)
				for j := range ops {
					ops[j] = mr.mkQuery(rng)
				}
				_, st := c.ApplyOps(ops)
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

// benchReport is the dmpcbench/v4 document: the flags that shape the
// streams, then one block per table. Every cell is a model count, a
// deterministic function of (n, updates, seed, wallmax) at any worker
// count, so two runs with the same flags write the same document apart
// from the workers header.
type benchReport struct {
	Schema  string `json:"schema"`
	N       int    `json:"n"`
	Updates int    `json:"updates"`
	Seed    int64  `json:"seed"`
	WallMax int    `json:"wallmax"`
	// Workers records the -workers flag every table but treedp and
	// wallclock ran at; those two always measure compareWorkers.
	Workers int `json:"workers"`

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
		Workers:     benchWorkers,
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
		d.Close()
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

func main() {
	n := flag.Int("n", 128, "number of vertices")
	updates := flag.Int("updates", 500, "updates per algorithm")
	seed := flag.Int64("seed", 1, "stream seed")
	flag.IntVar(&benchWorkers, "workers", 1, "goroutines running each round's handlers in the measurement tables (<= 1: inline on the driver); changes no recorded cell")
	wallMax := flag.Int("wallmax", 10_000, "largest n of the inline-vs-sharded ladder {128, 10^4, 10^5, 10^6} (BENCH_0015.json stops at the default)")
	asJSON := flag.Bool("json", false, "emit the measurements as one dmpcbench/v4 JSON document")
	flag.Parse()

	rep := measureSuite(*n, *updates, *seed, *wallMax)
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
