// Command dmpcbench reproduces Table 1 of the paper in tabular form: for
// every dynamic DMPC algorithm it measures, over a random update stream,
// the three model complexity measures — rounds per update, active
// machines per round and communicated words per round (mean and worst
// case) — and prints them alongside the bound the paper claims. With
// -sweep it additionally reports how the measures scale with the input
// size N, exposing the O(√N) communication shape.
//
// With -batch k the same stream is additionally applied through each
// algorithm's ApplyOps in write-only chunks of k, reporting rounds per
// batch and the amortized rounds per update next to the k=1 baseline —
// the batch-dynamic headline metric. With -json the whole measurement is
// emitted as a machine-readable JSON document (see benchReport) so the
// perf trajectory can be committed as BENCH_NNNN.json snapshots and
// diffed across PRs.
//
// With -autobatch the dmpc.AutoBatcher adaptive batch-sizing driver runs
// the stream and reports the chunk-size trajectory its knee search took.
// With -mixed the unified op pipeline (reads sequenced into the update
// waves) is compared against a position-preserving quiescence split of
// the same op stream at -readfrac. (BENCH_0002/0003 keep the frozen
// figures of the retired -queries and -shard comparators.)
//
// With -treedp the tree-DP workload is measured: mixed link/cut/weight/
// DP-query streams (SubtreeSum, PathSum, TreeTop) from a uniform and a
// preferential-attachment power-law generator, chunked at k ∈ {8, 64,
// 256} on both backends, reporting rounds/op, the amortized DP rounds
// per query and cross-backend answer equality (see BENCH_0010.json).
//
// With -baseline FILE the run's amortized batch rounds are compared
// against a committed BENCH_*.json snapshot and the command exits nonzero
// on a regression beyond -tolerance (default 10%) — the CI bench smoke.
//
// With -cpuprofile FILE / -memprofile FILE the measured section (every
// table, from the first measurement to the last) is wrapped in a pprof
// capture: -cpuprofile streams the CPU profile of the measurements
// themselves, -memprofile snapshots the heap (after a forced collection)
// the moment the measurements finish. Construction and report
// marshalling stay outside both, so the profiles answer "where do the
// benchmarked ops spend their time/memory" — the standing profiling
// hook for perf PRs.
//
// Usage:
//
//	dmpcbench [-n 128] [-updates 500] [-seed 1] [-sweep] [-batch k] [-autobatch] [-mixed] [-readfrac f] [-arrivals] [-tenants] [-treedp] [-wallclock] [-wallmax n] [-backend b] [-workers w] [-cpuprofile FILE] [-memprofile FILE] [-json] [-baseline FILE] [-tolerance f]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"
	"time"

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

type row struct {
	name       string
	claim      string
	meanRounds float64
	maxRounds  int
	maxActive  int
	meanWords  float64
	maxWords   int
}

type updater func(up graph.Update) mpc.UpdateStats

// applyOps is a core's one execution path.
type applyOps func([]graph.Op) (graph.Results, mpc.MixedStats)

// perOp runs each update as its own one-op ApplyOps window and reports the
// window (a read-free window is its update half) in the per-update shape.
func perOp(apply applyOps) updater {
	return func(up graph.Update) mpc.UpdateStats {
		_, st := apply([]graph.Op{graph.OpUpdate(up)})
		return st.Updates.UpdateStats
	}
}

// perBatch runs each batch as one write-only ApplyOps window.
func perBatch(apply applyOps) func(graph.Batch) mpc.BatchStats {
	return func(b graph.Batch) mpc.BatchStats {
		_, st := apply(graph.UpdateOps(b))
		return st.Updates
	}
}

// foldUpdates runs a batch through a per-update driver and folds the
// update windows into the batch shape — for the drivers that have no
// shared window (the §7 reduction, and §6's per-update cycle at k=1).
func foldUpdates(f updater) func(graph.Batch) mpc.BatchStats {
	return func(b graph.Batch) mpc.BatchStats {
		st := mpc.BatchStats{Updates: len(b)}
		for _, up := range b {
			u := f(up)
			st.Rounds += u.Rounds
			st.SumActive += u.SumActive
			st.SumWords += u.SumWords
			st.MaxActive = max(st.MaxActive, u.MaxActive)
			st.MaxWords = max(st.MaxWords, u.MaxWords)
		}
		return st
	}
}

// ammCycle is §6's fixed-schedule per-update driver (see amm.M.Insert).
func ammCycle(m *amm.M) updater {
	return func(up graph.Update) mpc.UpdateStats {
		if up.Op == graph.Insert {
			return m.Insert(up.U, up.V)
		}
		return m.Delete(up.U, up.V)
	}
}

func measure(name, claim string, updates []graph.Update, f updater) row {
	r := row{name: name, claim: claim}
	var sumRounds, sumWords, rounds int
	for _, up := range updates {
		st := f(up)
		sumRounds += st.Rounds
		rounds += st.Rounds
		sumWords += st.SumWords
		if st.Rounds > r.maxRounds {
			r.maxRounds = st.Rounds
		}
		if st.MaxActive > r.maxActive {
			r.maxActive = st.MaxActive
		}
		if st.MaxWords > r.maxWords {
			r.maxWords = st.MaxWords
		}
	}
	r.meanRounds = float64(sumRounds) / float64(len(updates))
	if rounds > 0 {
		r.meanWords = float64(sumWords) / float64(rounds)
	}
	return r
}

func table(n, nUpdates int, seed int64) []row {
	capEdges := 6 * n
	mk := func(s int64) []graph.Update {
		return graph.RandomStream(n, nUpdates, 0.55, 50, rand.New(rand.NewSource(seed+s)))
	}
	var rows []row

	m1 := newDMM(dmm.Config{N: n, CapEdges: capEdges})
	rows = append(rows, measure("Maximal matching (§3)", "O(1) r, O(1) mach, O(√N) words", mk(1), perOp(m1.ApplyOps)))

	m2 := newDMM(dmm.Config{N: n, CapEdges: capEdges, ThreeHalves: true})
	rows = append(rows, measure("3/2-approx matching (§4)", "O(1) r, O(n/√N) mach, O(√N) words", mk(2), perOp(m2.ApplyOps)))

	m3 := newAMM(amm.Config{N: n, Seed: seed})
	rows = append(rows, measure("(2+ε)-approx matching (§6)", "O(1) r, Õ(1) mach, Õ(1) words", mk(3), ammCycle(m3)))

	d4 := newDyncon(dyncon.Config{N: n, Mode: dyncon.CC, ExpectedEdges: capEdges})
	rows = append(rows, measure("Connected comps (§5)", "O(1) r, O(√N) mach, O(√N) words", mk(4), perOp(d4.ApplyOps)))

	d5 := newDyncon(dyncon.Config{N: n, Mode: dyncon.MST, Eps: 0.25, ExpectedEdges: capEdges})
	rows = append(rows, measure("(1+ε)-MST (§5.1)", "O(1) r, O(√N) mach, O(√N) words", mk(5), perOp(d5.ApplyOps)))

	simH := reduction.NewSim(8, 1<<18)
	wh := reduction.NewWrapped(simH, reduction.HDTTarget{H: seqdyn.NewHDT(n)})
	rows = append(rows, measure("Reduction: conn comps (§7+HDT)", "Õ(1) r amort., O(1) mach, O(1) words", mk(6), wh.Update))

	simM := reduction.NewSim(8, 1<<18)
	wm := reduction.NewWrapped(simM, reduction.NSMatchTarget{M: seqdyn.NewNSMatch(n, capEdges)})
	rows = append(rows, measure("Reduction: matching (§7+NS)", "O(√m) r wc, O(1) mach, O(1) words", mk(7), wm.Update))

	simF := reduction.NewSim(8, 1<<18)
	wf := reduction.NewWrapped(simF, reduction.MSFTarget{F: seqdyn.NewDynMSF(n)})
	rows = append(rows, measure("Reduction: MST (§7+DynMSF)", "Õ(1) r amort., O(1) mach, O(1) words", mk(8), wf.Update))

	return rows
}

// batchRow is one algorithm's batch-pipeline measurement at a given k.
type batchRow struct {
	name       string
	k          int
	batches    int
	meanRounds float64 // rounds per batch
	amortized  float64 // rounds per update
	maxActive  int
	meanWords  float64 // words per round
}

type batchRunner struct {
	name string
	mk   func(k int) func(graph.Batch) mpc.BatchStats
}

// batchRunners builds one fresh instance per measurement so successive k
// values see identical starting states.
func batchRunners(n, capEdges int, seed int64) []batchRunner {
	return []batchRunner{
		{"Maximal matching (§3)", func(int) func(graph.Batch) mpc.BatchStats {
			return perBatch(newDMM(dmm.Config{N: n, CapEdges: capEdges}).ApplyOps)
		}},
		{"3/2-approx matching (§4)", func(int) func(graph.Batch) mpc.BatchStats {
			return perBatch(newDMM(dmm.Config{N: n, CapEdges: capEdges, ThreeHalves: true}).ApplyOps)
		}},
		{"(2+ε)-approx matching (§6)", func(k int) func(graph.Batch) mpc.BatchStats {
			m := newAMM(amm.Config{N: n, Seed: seed})
			if k == 1 {
				// The k=1 column is by definition the per-update protocol.
				return foldUpdates(ammCycle(m))
			}
			return perBatch(m.ApplyOps)
		}},
		{"Connected comps (§5)", func(int) func(graph.Batch) mpc.BatchStats {
			return perBatch(newDyncon(dyncon.Config{N: n, Mode: dyncon.CC, ExpectedEdges: capEdges}).ApplyOps)
		}},
		{"(1+ε)-MST (§5.1)", func(int) func(graph.Batch) mpc.BatchStats {
			return perBatch(newDyncon(dyncon.Config{N: n, Mode: dyncon.MST, Eps: 0.25, ExpectedEdges: capEdges}).ApplyOps)
		}},
		{"Reduction: conn comps (§7+HDT)", func(int) func(graph.Batch) mpc.BatchStats {
			// The §7 simulation is inherently serial: a batch costs the sum
			// of its updates' O(u(N))-round costs, so the row stays flat.
			sim := reduction.NewSim(8, 1<<18)
			return foldUpdates(reduction.NewWrapped(sim, reduction.HDTTarget{H: seqdyn.NewHDT(n)}).Update)
		}},
	}
}

func measureBatch(name string, updates []graph.Update, k int, run func(graph.Batch) mpc.BatchStats) batchRow {
	r := batchRow{name: name, k: k}
	var rounds, words, upd int
	for _, b := range graph.Chunk(updates, k) {
		st := run(b)
		r.batches++
		rounds += st.Rounds
		words += st.SumWords
		upd += st.Updates
		if st.MaxActive > r.maxActive {
			r.maxActive = st.MaxActive
		}
	}
	if r.batches > 0 {
		r.meanRounds = float64(rounds) / float64(r.batches)
	}
	if upd > 0 {
		r.amortized = float64(rounds) / float64(upd)
	}
	if rounds > 0 {
		r.meanWords = float64(words) / float64(rounds)
	}
	return r
}

// batchTable measures every algorithm at k=1 and k=batch over the same
// stream (fresh instances per k).
func batchTable(n, nUpdates, batch int, seed int64) []batchRow {
	capEdges := 6 * n
	stream := graph.RandomStream(n, nUpdates, 0.55, 50, rand.New(rand.NewSource(seed+100)))
	ks := []int{1}
	if batch > 1 {
		ks = append(ks, batch)
	}
	var rows []batchRow
	for _, br := range batchRunners(n, capEdges, seed) {
		for _, k := range ks {
			rows = append(rows, measureBatch(br.name, stream, k, br.mk(k)))
		}
	}
	return rows
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

func autoTable(n, nUpdates int, seed int64) []autoRow {
	capEdges := 6 * n
	stream := graph.RandomStream(n, nUpdates, 0.55, 50, rand.New(rand.NewSource(seed+100)))
	runners := []struct {
		name string
		mk   func() (applyOps, *mpc.Cluster)
	}{
		{"Connected comps (§5)", func() (applyOps, *mpc.Cluster) {
			d := newDyncon(dyncon.Config{N: n, Mode: dyncon.CC, ExpectedEdges: capEdges})
			return d.ApplyOps, d.Cluster()
		}},
		{"Maximal matching (§3)", func() (applyOps, *mpc.Cluster) {
			m := newDMM(dmm.Config{N: n, CapEdges: capEdges})
			return m.ApplyOps, m.Cluster()
		}},
	}
	var rows []autoRow
	for _, rn := range runners {
		apply, cl := rn.mk()
		ab := dmpc.NewAutoBatcher(dmpc.AutoBatcherConfig{
			ApplyOps: apply,
			CapWords: cl.Machines() * cl.MemWords(),
			StartK:   8,
			MaxK:     256,
		})
		ab.Run(stream)
		var rounds, upd int
		for _, st := range ab.History() {
			rounds += st.Rounds
			upd += st.Updates
		}
		rows = append(rows, autoRow{
			Name: rn.name, Ks: ab.Ks(), FinalK: ab.K(),
			Amortized: float64(rounds) / float64(upd),
		})
	}
	return rows
}

func printAutoTable(rows []autoRow) {
	fmt.Println("\nAdaptive batch sizing (dmpc.AutoBatcher knee search):")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Algorithm\tk trajectory\tfinal k\tamortized rounds/upd\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%v\t%d\t%.2f\n", r.Name, r.Ks, r.FinalK, r.Amortized)
	}
	w.Flush()
	fmt.Println("(after a warmup the driver doubles k while probe windows stay within the")
	fmt.Println(" noise margin of the best seen, settles at the knee on two bad windows, and")
	fmt.Println(" halves k whenever the cluster-wide word budget is exceeded)")
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
func mixedTable(n, nUpdates int, readfrac float64, seed int64) []mixedRow {
	capEdges := 6 * n
	stream := graph.RandomStream(n, nUpdates, 0.55, 50, rand.New(rand.NewSource(seed+100)))
	var rows []mixedRow
	for _, mr := range mixedRunners(n, capEdges) {
		ops := graph.MixedStream(stream, readfrac, mr.mkQuery, rand.New(rand.NewSource(seed+200)))
		ks := make([]int, 0, 3)
		for _, k := range []int{8, 64, 256} {
			if k > len(ops) {
				k = len(ops)
			}
			if len(ks) > 0 && ks[len(ks)-1] == k {
				continue
			}
			ks = append(ks, k)
		}
		for _, k := range ks {
			rows = append(rows, measureMixedPipeline(mr, ops, k))
		}
	}
	return rows
}

func printMixedTable(rows []mixedRow, readfrac float64) {
	fmt.Printf("\nUnified op pipeline: in-wave reads vs quiescence split (readfrac %.2f):\n", readfrac)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Algorithm\tk\tops\tinwave r/op\tquiescence r/op\tratio\tquery-half rounds\tfree-riding reads\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.3f\t%.3f\t%.2f\t%d\t%d/%d\n",
			r.Name, r.K, r.Ops, r.InwavePerOp, r.QuiescencePerOp, r.Ratio, r.QueryHalf, r.FreeRides, r.Queries)
	}
	w.Flush()
	fmt.Println("(both sides answer the same reads at the same stream positions; the split")
	fmt.Println(" must quiesce at every read run, while the unified pipeline precedence-colors")
	fmt.Println(" the reads into the update waves — a read sharing an update's wave costs zero")
	fmt.Println(" extra rounds, which is where the ratio comes from)")
}

func printBatchTable(rows []batchRow, batch int) {
	fmt.Printf("\nBatch pipeline (write-only ApplyOps windows, k=%d vs k=1):\n", batch)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Algorithm\tk\trounds/batch\tamortized rounds/upd\tmach/round (wc)\twords/round (mean)\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%d\t%.1f\n",
			r.name, r.k, r.meanRounds, r.amortized, r.maxActive, r.meanWords)
	}
	w.Flush()
	fmt.Println("(amortized rounds/update dropping as k grows is the batch-dynamic headline;")
	fmt.Println(" the §7 reduction replays sequentially, so its amortized cost stays flat)")
}

// --- JSON output ----------------------------------------------------------

type jsonAlgo struct {
	Name               string  `json:"name"`
	Claim              string  `json:"claim"`
	MeanRoundsPerUpd   float64 `json:"mean_rounds_per_update"`
	WorstRounds        int     `json:"wc_rounds"`
	WorstMachines      int     `json:"wc_machines_per_round"`
	MeanWordsPerRound  float64 `json:"mean_words_per_round"`
	WorstWordsPerRound int     `json:"wc_words_per_round"`
}

type jsonBatch struct {
	Name              string  `json:"name"`
	K                 int     `json:"k"`
	Batches           int     `json:"batches"`
	RoundsPerBatch    float64 `json:"rounds_per_batch"`
	AmortizedRounds   float64 `json:"amortized_rounds_per_update"`
	WorstMachines     int     `json:"wc_machines_per_round"`
	MeanWordsPerRound float64 `json:"mean_words_per_round"`
}

type benchReport struct {
	Schema   string      `json:"schema"`
	N        int         `json:"n"`
	Updates  int         `json:"updates"`
	Seed     int64       `json:"seed"`
	BatchK   int         `json:"batch_k,omitempty"`
	ReadFrac float64     `json:"read_frac,omitempty"`
	Table1   []jsonAlgo  `json:"table1"`
	Batch    []jsonBatch `json:"batch,omitempty"`
	Auto     []autoRow   `json:"autobatch,omitempty"`
	Mixed    []mixedRow  `json:"mixed,omitempty"`
	Sweep    []sweepRow  `json:"sweep,omitempty"`

	Arrivals    []arrivalRow     `json:"arrivals,omitempty"`
	LatencyAuto []latencyAutoRow `json:"latency_autobatch,omitempty"`
	Tenants     []tenantRow      `json:"tenants,omitempty"`
	TreeDP      []treedpRow      `json:"treedp,omitempty"`

	// Backend records the -backend flag the (non-wallclock) tables ran
	// on; Wall is the sim-vs-parallel wall-clock trajectory, which always
	// measures both backends.
	Backend string    `json:"backend,omitempty"`
	Wall    []wallRow `json:"wallclock,omitempty"`
}

// buildReport assembles the machine-readable measurement document.
func buildReport(rows []row, brows []batchRow, arows []autoRow, mrows []mixedRow, srows []sweepRow, n, updates, batch int, readfrac float64, seed int64) benchReport {
	rep := benchReport{Schema: "dmpcbench/v2", N: n, Updates: updates, Seed: seed, BatchK: batch,
		Auto: arows, Mixed: mrows, Sweep: srows}
	if len(mrows) > 0 {
		rep.ReadFrac = readfrac
	}
	for _, r := range rows {
		rep.Table1 = append(rep.Table1, jsonAlgo{
			Name: r.name, Claim: r.claim,
			MeanRoundsPerUpd: r.meanRounds, WorstRounds: r.maxRounds,
			WorstMachines: r.maxActive, MeanWordsPerRound: r.meanWords,
			WorstWordsPerRound: r.maxWords,
		})
	}
	for _, r := range brows {
		rep.Batch = append(rep.Batch, jsonBatch{
			Name: r.name, K: r.k, Batches: r.batches,
			RoundsPerBatch: r.meanRounds, AmortizedRounds: r.amortized,
			WorstMachines: r.maxActive, MeanWordsPerRound: r.meanWords,
		})
	}
	return rep
}

func printJSON(rep benchReport) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "dmpcbench:", err)
		os.Exit(1)
	}
}

// checkBaseline compares the run's amortized batch rounds against a
// committed BENCH snapshot (the CI bench-regression smoke): for every
// (name, k) batch row present in both, the measured amortized
// rounds/update may not exceed the snapshot's by more than tol (relative).
// The simulator is deterministic for fixed flags and seed, so any drift is
// a code change, and tol only leaves room for intentional small
// scheduling tweaks between re-pins.
func checkBaseline(rep benchReport, path string, tol float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want benchReport
	if err := json.Unmarshal(raw, &want); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if want.N != rep.N || want.Updates != rep.Updates || want.Seed != rep.Seed || want.BatchK != rep.BatchK {
		return fmt.Errorf("%s was recorded with -n %d -updates %d -seed %d -batch %d; this run used -n %d -updates %d -seed %d -batch %d",
			path, want.N, want.Updates, want.Seed, want.BatchK, rep.N, rep.Updates, rep.Seed, rep.BatchK)
	}
	type key struct {
		name string
		k    int
	}
	base := make(map[key]float64, len(want.Batch))
	for _, b := range want.Batch {
		base[key{b.Name, b.K}] = b.AmortizedRounds
	}
	matched := 0
	for _, b := range rep.Batch {
		wantA, ok := base[key{b.Name, b.K}]
		if !ok {
			continue
		}
		matched++
		if b.AmortizedRounds > wantA*(1+tol) {
			return fmt.Errorf("%s (k=%d): amortized rounds/update %.3f regressed past snapshot %.3f by more than %.0f%% (%s)",
				b.Name, b.K, b.AmortizedRounds, wantA, tol*100, path)
		}
	}
	// Mixed-pipeline regression: the in-wave rounds/op may not drift past
	// the snapshot, and at k >= 64 the in-wave path must still *beat* the
	// quiescence split outright — the unified-pipeline headline is an
	// invariant, not just a number.
	mixedBase := make(map[key]float64, len(want.Mixed))
	for _, m := range want.Mixed {
		mixedBase[key{m.Name, m.K}] = m.InwavePerOp
	}
	for _, m := range rep.Mixed {
		wantA, ok := mixedBase[key{m.Name, m.K}]
		if !ok {
			continue
		}
		matched++
		if m.InwavePerOp > wantA*(1+tol) {
			return fmt.Errorf("%s (k=%d): in-wave rounds/op %.3f regressed past snapshot %.3f by more than %.0f%% (%s)",
				m.Name, m.K, m.InwavePerOp, wantA, tol*100, path)
		}
		if m.K >= 64 && m.Ratio >= 1 {
			return fmt.Errorf("%s (k=%d): in-wave reads no longer beat the quiescence path (ratio %.3f)",
				m.Name, m.K, m.Ratio)
		}
	}
	// Streaming-latency regression: the p99 rounds-from-arrival at the
	// k=64 batch bound may not drift past the snapshot, and the
	// tail-constrained AutoBatcher must keep settling at a smaller k than
	// the unconstrained search — the latency headline is an invariant.
	type akey struct {
		name, gen string
		k         int
	}
	arrBase := make(map[akey]int64, len(want.Arrivals))
	for _, a := range want.Arrivals {
		arrBase[akey{a.Name, a.Gen, a.K}] = a.P99
	}
	for _, a := range rep.Arrivals {
		if a.K != 64 {
			continue
		}
		wantP, ok := arrBase[akey{a.Name, a.Gen, a.K}]
		if !ok {
			continue
		}
		matched++
		if float64(a.P99) > float64(wantP)*(1+tol) {
			return fmt.Errorf("%s (%s, k=%d): latency p99 %d rounds regressed past snapshot %d by more than %.0f%% (%s)",
				a.Name, a.Gen, a.K, a.P99, wantP, tol*100, path)
		}
	}
	for _, l := range rep.LatencyAuto {
		matched++
		if l.BoundK >= l.FreeK {
			return fmt.Errorf("%s (%s): TargetP99Rounds=%d no longer settles below the unconstrained k (bound %d vs free %d)",
				l.Name, l.Gen, l.Target, l.BoundK, l.FreeK)
		}
	}
	// Multi-tenant gates. The fair victim p99 may not drift past the
	// snapshot, and two invariants hold outright: the fair run must keep
	// the victim's read tail bounded near its solo baseline under the
	// noisy tenant's flood, and tenant tags alone (no weights, no
	// admission) must leave the stream bit-identical to the untagged run.
	tenBase := make(map[string]int64, len(want.Tenants))
	for _, tr := range want.Tenants {
		tenBase[tr.Name] = tr.VictimFairP99
	}
	for _, tr := range rep.Tenants {
		if wantP, ok := tenBase[tr.Name]; ok {
			matched++
			if float64(tr.VictimFairP99) > float64(wantP)*(1+tol) {
				return fmt.Errorf("%s: fair victim p99 %d rounds regressed past snapshot %d by more than %.0f%% (%s)",
					tr.Name, tr.VictimFairP99, wantP, tol*100, path)
			}
		}
		if tr.VictimFairP99 > 2*tr.VictimSoloP99 {
			return fmt.Errorf("%s: fair victim p99 %d rounds exceeds 2x its solo baseline %d — the noisy tenant broke isolation",
				tr.Name, tr.VictimFairP99, tr.VictimSoloP99)
		}
		if !tr.ZeroTenantIdentical {
			return fmt.Errorf("%s: tenant tags alone changed answers or accounting — the zero-tenant compatibility contract is broken", tr.Name)
		}
	}
	// Tree-DP gates. The amortized DP rounds/query at k=64 may not drift
	// past the snapshot, and two invariants hold outright regardless of
	// any snapshot: on the uniform workload DP reads must amortize below
	// one round per query at k >= 64 (the power-law rows are exempt — a
	// giant component legitimately serializes its reads around its own
	// structural churn, that being the snapshot-consistency contract),
	// and the sim and parallel backends must have answered the identical
	// stream bit-identically.
	type tkey struct {
		name, backend string
		k             int
	}
	treedpBase := make(map[tkey]float64, len(want.TreeDP))
	for _, tr := range want.TreeDP {
		treedpBase[tkey{tr.Name, tr.Backend, tr.K}] = tr.DPRoundsPerQuery
	}
	for _, tr := range rep.TreeDP {
		if wantQ, ok := treedpBase[tkey{tr.Name, tr.Backend, tr.K}]; ok && tr.K == 64 {
			matched++
			if tr.DPRoundsPerQuery > wantQ*(1+tol) {
				return fmt.Errorf("%s (k=%d, %s): DP rounds/query %.3f regressed past snapshot %.3f by more than %.0f%% (%s)",
					tr.Name, tr.K, tr.Backend, tr.DPRoundsPerQuery, wantQ, tol*100, path)
			}
		}
		if tr.Name == "uniform" && tr.K >= 64 && tr.DPRoundsPerQuery >= 1 {
			return fmt.Errorf("%s (k=%d, %s): DP reads no longer amortize below one round per query (%.3f)",
				tr.Name, tr.K, tr.Backend, tr.DPRoundsPerQuery)
		}
		if !tr.AnswersMatch {
			return fmt.Errorf("%s (k=%d): sim and parallel backends disagree on DP answers — the determinism rule is broken", tr.Name, tr.K)
		}
	}
	// Wall-clock gates. Rounds/op is deterministic, so (a) it may not
	// drift past the snapshot, and (b) within the run the two backends
	// must agree on it exactly — a rounds-vs-time divergence means a
	// backend changed the computation, not just its speed. The ns columns
	// are machine-dependent and never gated against the snapshot; what IS
	// an invariant is the trajectory's headline: at n >= 10^4 the parallel
	// backend must beat the sim oracle's makespan on the same stream.
	// Allocs/round is gated outright: the pooled round engine's bill is a
	// code property, not a machine property, so drifting past the snapshot
	// (modulo tol and a small absolute slack for GC-clock jitter) means
	// someone re-introduced per-round allocation.
	type wkey struct {
		name, backend string
		n             int
	}
	wallBase := make(map[wkey]wallRow, len(want.Wall))
	for _, w := range want.Wall {
		wallBase[wkey{w.Name, w.Backend, w.N}] = w
	}
	simWall := make(map[wkey]wallRow, len(rep.Wall))
	for _, w := range rep.Wall {
		if w.Backend == "sim" {
			simWall[wkey{name: w.Name, n: w.N}] = w
		}
	}
	for _, w := range rep.Wall {
		if wantW, ok := wallBase[wkey{w.Name, w.Backend, w.N}]; ok {
			matched++
			if w.RoundsPerOp > wantW.RoundsPerOp*(1+tol) {
				return fmt.Errorf("%s (n=%d, %s): wall-clock rounds/op %.3f regressed past snapshot %.3f by more than %.0f%% (%s)",
					w.Name, w.N, w.Backend, w.RoundsPerOp, wantW.RoundsPerOp, tol*100, path)
			}
			// Pre-PR-9 snapshots carry no allocs column (0): nothing to gate.
			if budget := wantW.AllocsPerRound*(1+tol) + 16; wantW.AllocsPerRound > 0 && w.AllocsPerRound > budget {
				return fmt.Errorf("%s (n=%d, %s): allocs/round %.1f exceeds the snapshot's %.1f (budget %.1f) — the pooled round engine is allocating again (%s)",
					w.Name, w.N, w.Backend, w.AllocsPerRound, wantW.AllocsPerRound, budget, path)
			}
		}
		if w.Backend != "parallel" {
			continue
		}
		sim, ok := simWall[wkey{name: w.Name, n: w.N}]
		if !ok {
			continue
		}
		if w.RoundsPerOp != sim.RoundsPerOp {
			return fmt.Errorf("%s (n=%d): backends diverge on rounds/op (parallel %.3f vs sim %.3f) — the determinism rule is broken",
				w.Name, w.N, w.RoundsPerOp, sim.RoundsPerOp)
		}
		if w.N >= 10_000 && w.MakespanNs > sim.MakespanNs*102/100 {
			return fmt.Errorf("%s (n=%d): parallel backend no longer beats the sim oracle (makespan %s vs %s)",
				w.Name, w.N, time.Duration(w.MakespanNs), time.Duration(sim.MakespanNs))
		}
	}
	if matched == 0 {
		return fmt.Errorf("%s: no batch, mixed, arrival, tenant or wallclock rows matched this run (was the snapshot generated with -batch/-mixed/-arrivals/-tenants/-wallclock?)", path)
	}
	return nil
}

func printTable(rows []row, n int) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Algorithm\tPaper bound\trounds/upd (mean)\trounds (wc)\tmach/round (wc)\twords/round (mean)\twords (wc)\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.2f\t%d\t%d\t%.1f\t%d\n",
			r.name, r.claim, r.meanRounds, r.maxRounds, r.maxActive, r.meanWords, r.maxWords)
	}
	w.Flush()
	fmt.Printf("\n(N = n + 2m ≈ %d; √N ≈ %.0f)\n", 13*n, math.Sqrt(13*float64(n)))
}

func staticBaselines(n int, seed int64) {
	g := graph.GNM(n, 5*n, 50, rand.New(rand.NewSource(seed)))
	_, cc := staticmpc.ConnectedComponents(g, 0, 0)
	_, mm := staticmpc.MaximalMatching(g, 0, 0, seed)
	_, mf := staticmpc.MinSpanningForest(g, 8)
	fmt.Println("\nStatic recompute-from-scratch baselines (per recomputation):")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Baseline\trounds\tmach/round (wc)\twords total\n")
	fmt.Fprintf(w, "Label-prop CC (O(log n) rounds)\t%d\t%d\t%d\n", cc.Rounds, cc.MaxActive, cc.TotalWords)
	fmt.Fprintf(w, "Proposal matching (O(log n) w.h.p.)\t%d\t%d\t%d\n", mm.Rounds, mm.MaxActive, mm.TotalWords)
	fmt.Fprintf(w, "Filtering MSF [26]\t%d\t%d\t%d\n", mf.Rounds, mf.MaxActive, mf.TotalWords)
	w.Flush()
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
		rng := rand.New(rand.NewSource(seed))
		var maxR, maxA, maxW int
		update := perOp(d.ApplyOps)
		for _, up := range graph.RandomStream(n, 300, 0.55, 1, rng) {
			st := update(up)
			if st.Rounds > maxR {
				maxR = st.Rounds
			}
			if st.MaxActive > maxA {
				maxA = st.MaxActive
			}
			if st.MaxWords > maxW {
				maxW = st.MaxWords
			}
		}
		root := math.Sqrt(11 * float64(n))
		rows = append(rows, sweepRow{
			N: n, WorstRounds: maxR, WorstMachines: maxA, WorstWords: maxW,
			WordsPerSqrtN: float64(maxW) / root,
		})
	}
	return rows
}

func printSweep(rows []sweepRow) {
	fmt.Println("\nScaling sweep (§5 connectivity): words/round vs N")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "n\trounds/upd (wc)\tmach/round (wc)\twords/round (wc)\twords/√N\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.1f\n", r.N, r.WorstRounds, r.WorstMachines, r.WorstWords, r.WordsPerSqrtN)
	}
	w.Flush()
	fmt.Println("(flat rounds and a roughly constant words/√N column are the paper's shape)")
}

func main() {
	n := flag.Int("n", 128, "number of vertices")
	updates := flag.Int("updates", 500, "updates per algorithm")
	seed := flag.Int64("seed", 1, "stream seed")
	doSweep := flag.Bool("sweep", false, "run the scaling sweep")
	batch := flag.Int("batch", 0, "measure the batch pipeline at this batch size (and k=1)")
	doAuto := flag.Bool("autobatch", false, "run the AutoBatcher adaptive batch-sizing driver and report its k trajectory")
	doMixed := flag.Bool("mixed", false, "measure the unified op pipeline (in-wave reads) against the quiescence split at k in {8,64,256}")
	doArrivals := flag.Bool("arrivals", false, "measure streaming ingestion latency (p50/p95/p99 rounds from arrival) at batch bounds k in {8,64,256} plus the tail-constrained AutoBatcher comparison")
	doTreeDP := flag.Bool("treedp", false, "measure the tree-DP workload: mixed link/cut/weight/DP-query streams at k in {8,64,256} on both backends, with amortized DP rounds/query and cross-backend answer equality")
	doTenants := flag.Bool("tenants", false, "measure multi-tenant isolation: a read-mostly victim's p99 solo vs shared with a write-storm tenant, unweighted vs fair-wave packing plus token-bucket admission")
	readfrac := flag.Float64("readfrac", 0.5, "target read fraction of the mixed workload")
	backendFlag := flag.String("backend", "sim", "execution backend for the measurement tables: sim (deterministic oracle) or parallel (goroutine-per-machine runtime)")
	workers := flag.Int("workers", 0, "backend worker bound (0 = GOMAXPROCS); never changes rounds, only wall-clock time")
	doWall := flag.Bool("wallclock", false, "measure the sim-vs-parallel wall-clock trajectory (ns/op, makespan and allocs/round next to rounds/op) over the -wallmax n ladder")
	wallMax := flag.Int("wallmax", 1_000_000, "largest n of the -wallclock ladder (CI smoke caps this; snapshots record the full climb)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the measured section to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile, captured right after the measured section, to this file")
	asJSON := flag.Bool("json", false, "emit the measurements as JSON")
	baseline := flag.String("baseline", "", "committed BENCH_*.json snapshot to compare amortized batch rounds against; exit nonzero on >tolerance regression")
	tolerance := flag.Float64("tolerance", 0.10, "relative regression tolerance for -baseline")
	flag.Parse()

	be, err := mpc.ParseBackend(*backendFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmpcbench:", err)
		os.Exit(2)
	}
	benchBackend, benchWorkers = be, *workers

	// The profile window opens here and closes after the last table, so
	// the captures cover exactly the measurements (see the doc comment).
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmpcbench:", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dmpcbench: cpuprofile:", err)
			os.Exit(2)
		}
	}

	rows := table(*n, *updates, *seed)
	var brows []batchRow
	if *batch > 0 {
		brows = batchTable(*n, *updates, *batch, *seed)
	}
	var arows []autoRow
	if *doAuto {
		arows = autoTable(*n, *updates, *seed)
	}
	// Resolve the read fraction once, so table and JSON report what was
	// actually measured.
	if *readfrac <= 0 || *readfrac >= 1 {
		*readfrac = 0.5
	}
	var mrows []mixedRow
	if *doMixed {
		mrows = mixedTable(*n, *updates, *readfrac, *seed)
	}
	var srows []sweepRow
	if *doSweep {
		srows = sweepRows(*seed)
	}
	var arrRows []arrivalRow
	var latRows []latencyAutoRow
	if *doArrivals {
		arrRows = arrivalTable(*n, *updates, *seed)
		latRows = latencyAutoTable(*n, *updates, *seed)
	}
	var trows []tenantRow
	if *doTenants {
		trows = tenantTable(*n, *updates, *seed)
	}
	var tdrows []treedpRow
	if *doTreeDP {
		tdrows = treedpTable(*n, *updates, *seed)
	}
	var wrows []wallRow
	if *doWall {
		wrows = wallTable(*updates, *seed, *wallMax)
	}

	// Measurements done: close the profile window before reporting.
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmpcbench:", err)
			os.Exit(2)
		}
		runtime.GC() // heap profile of live objects, not collectable garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dmpcbench: memprofile:", err)
			os.Exit(2)
		}
		f.Close()
	}

	rep := buildReport(rows, brows, arows, mrows, srows, *n, *updates, *batch, *readfrac, *seed)
	rep.Arrivals = arrRows
	rep.LatencyAuto = latRows
	rep.Tenants = trows
	rep.TreeDP = tdrows
	rep.Backend = benchBackend.String()
	rep.Wall = wrows
	if *baseline != "" {
		if err := checkBaseline(rep, *baseline, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "dmpcbench: bench regression:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dmpcbench: no bench regression vs %s (tolerance %.0f%%)\n", *baseline, *tolerance*100)
	}
	if *asJSON {
		printJSON(rep)
		return
	}
	fmt.Printf("DMPC dynamic algorithms — Table 1 reproduction (n=%d, %d updates, seed %d)\n\n", *n, *updates, *seed)
	printTable(rows, *n)
	if *batch > 0 {
		printBatchTable(brows, *batch)
	}
	if *doAuto {
		printAutoTable(arows)
	}
	if *doMixed {
		printMixedTable(mrows, *readfrac)
	}
	if *doArrivals {
		printArrivalTable(arrRows, latRows)
	}
	if *doTenants {
		printTenantTable(trows)
	}
	if *doTreeDP {
		printTreeDPTable(tdrows)
	}
	if *doWall {
		printWallTable(wrows)
	}
	staticBaselines(*n, *seed)
	if *doSweep {
		printSweep(srows)
	}
}
