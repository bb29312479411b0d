package main

import (
	"math/rand"

	"dmpc"
	"dmpc/internal/graph"
)

// --- streaming ingestion: per-op latency under timed arrivals -------------

// arrivalRow is one (algorithm, arrival process, batch bound) run of the
// streaming front door: the tail of the per-op rounds-from-arrival-to-
// answer distribution, the makespan, and the amortized rounds/op the
// latency was bought at.
type arrivalRow struct {
	Name        string  `json:"name"`
	Gen         string  `json:"arrivals"`
	K           int     `json:"k"`
	Ops         int     `json:"ops"`
	Flushes     int     `json:"flushes"`
	P50         int64   `json:"latency_p50_rounds"`
	P95         int64   `json:"latency_p95_rounds"`
	P99         int64   `json:"latency_p99_rounds"`
	Makespan    int64   `json:"makespan_rounds"`
	RoundsPerOp float64 `json:"rounds_per_op"`
}

// arrivalRunner builds one algorithm's fresh Pipeline plus the mixed op
// stream it ingests (reads interleaved at readfrac 0.75 — read-heavy,
// so batch-bound flushes and not just conflict cuts shape the latency).
type arrivalRunner struct {
	name string
	mk   func() dmpc.Pipeline
	ops  []dmpc.Op
}

func arrivalRunners(n, nUpdates int, seed int64) []arrivalRunner {
	capEdges := 6 * n
	ccStream := graph.RandomStream(n, nUpdates, 0.55, 50, rand.New(rand.NewSource(seed+100)))
	ccOps := graph.MixedStream(ccStream, 0.75, func(r *rand.Rand) graph.Op {
		return graph.OpQConnected(r.Intn(n), r.Intn(n))
	}, rand.New(rand.NewSource(seed+200)))
	mmStream := graph.RandomStream(n, nUpdates, 0.55, 1, rand.New(rand.NewSource(seed+300)))
	mmOps := graph.MixedStream(mmStream, 0.75, func(r *rand.Rand) graph.Op {
		return graph.OpQMateOf(r.Intn(n))
	}, rand.New(rand.NewSource(seed+400)))
	return []arrivalRunner{
		{"Connected comps (§5)", func() dmpc.Pipeline { return dmpc.NewConnectivity(n, capEdges, benchOpts()...) }, ccOps},
		{"Maximal matching (§3)", func() dmpc.Pipeline { return dmpc.NewMaximalMatching(n, capEdges, benchOpts()...) }, mmOps},
	}
}

type schedule struct {
	gen string
	arr []dmpc.Arrival
}

// arrivalSchedules stamps one op stream with the two arrival processes
// under test: Poisson (mean inter-arrival gap 4 rounds) and bursty
// (storms of 16 back-to-back ops, 48 quiet rounds between storms). The
// rates keep the cluster under ~70% utilization so the tail reflects
// batching policy, not an unstable queue.
func arrivalSchedules(ops []dmpc.Op, seed int64) []schedule {
	return []schedule{
		{"poisson", dmpc.PoissonArrivals(ops, 4, rand.New(rand.NewSource(seed+500)))},
		{"bursty", dmpc.BurstyArrivals(ops, 16, 0, 48)},
	}
}

// arrivalTable measures the streaming front door at fixed batch bounds
// k ∈ {8, 64} for each algorithm and arrival process (fresh instances per
// cell; conflict flushes cut the stream below k whenever the claims say
// so, and on these streams they cut every window below 64 ops, so a
// larger bound would measure the k = 64 row again).
func arrivalTable(n, nUpdates int, seed int64) []arrivalRow {
	var rows []arrivalRow
	for _, ar := range arrivalRunners(n, nUpdates, seed) {
		for _, sched := range arrivalSchedules(ar.ops, seed) {
			for _, k := range []int{8, 64} {
				p := ar.mk()
				_, st := dmpc.Ingest(p, sched.arr, dmpc.IngestorConfig{MaxBatch: k})
				p.Close()
				rows = append(rows, arrivalRow{
					Name: ar.name, Gen: sched.gen, K: k,
					Ops: st.Ops, Flushes: st.Flushes,
					P50: st.P50(), P95: st.P95(), P99: st.P99(),
					Makespan: st.Makespan, RoundsPerOp: st.RoundsPerOp(),
				})
			}
		}
	}
	return rows
}

func printArrivalTable(rows []arrivalRow) {
	printRows("\nStreaming ingestion: per-op latency under timed arrivals (readfrac 0.75):",
		"Algorithm\tarrivals\tk\tops\tflushes\tp50\tp95\tp99\tmakespan\trounds/op",
		"%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2f", rows,
		func(r arrivalRow) []any {
			return []any{r.Name, r.Gen, r.K, r.Ops, r.Flushes, r.P50, r.P95, r.P99, r.Makespan, r.RoundsPerOp}
		},
		"(latency is rounds from arrival to answer. Raising the batch bound from 8 to 64",
		" cuts flushes and rounds/op, and on Poisson arrivals raises p50 and p99: a window",
		" left open for more ops holds its early arrivals longer. Bursty p95/p99 do not",
		" move. Conflict admission cuts every window here below 64 ops, so a larger",
		" bound would measure the k=64 row again)")
}
