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

// latencyAutoRow compares an unconstrained AutoBatcher against a
// TargetP99Rounds-constrained one over the same arrival schedule: the
// tail bound must buy its latency by settling at a smaller k.
type latencyAutoRow struct {
	Name     string `json:"name"`
	Gen      string `json:"arrivals"`
	Target   int    `json:"target_p99_rounds"`
	FreeK    int    `json:"unconstrained_final_k"`
	BoundK   int    `json:"constrained_final_k"`
	FreeP99  int64  `json:"unconstrained_p99"`
	BoundP99 int64  `json:"constrained_p99"`
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
// k ∈ {8, 64, 256} for each algorithm and arrival process (fresh
// instances per cell; conflict flushes cut the stream below k whenever
// the claims say so).
func arrivalTable(n, nUpdates int, seed int64) []arrivalRow {
	var rows []arrivalRow
	for _, ar := range arrivalRunners(n, nUpdates, seed) {
		for _, sched := range arrivalSchedules(ar.ops, seed) {
			for _, k := range []int{8, 64, 256} {
				_, st := dmpc.Ingest(ar.mk(), sched.arr, dmpc.IngestorConfig{MaxBatch: k})
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

// boundsOnlyPipeline hides the facade's claims oracle from the Ingestor,
// so ingestion runs in the foreign-Pipeline regime: no admission control,
// only the configured bounds cut the stream. With claims on, the
// packer refuses any op that would not fit the forming set's first
// wave, which caps a chunk's rounds by construction and hides the
// batch-size/tail trade this table exists to measure.
type boundsOnlyPipeline struct{ p dmpc.Pipeline }

func (o boundsOnlyPipeline) Apply(ops []dmpc.Op) (dmpc.Results, dmpc.MixedStats) {
	return o.p.Apply(ops)
}
func (o boundsOnlyPipeline) Cluster() *dmpc.Cluster { return o.p.Cluster() }
func (o boundsOnlyPipeline) Close()                 { o.p.Close() }

// latencyAutoTable runs one Poisson arrival schedule through two
// AutoBatcher-driven ingests — one free, one tail-constrained — and
// records where each knee search settled. Admission control is off (see
// boundsOnlyPipeline), so every flush is a k-bound full chunk the knee
// search sees, and a chunk's rounds grow with the conflicting updates it
// serializes. Unconstrained, the search chases amortized rounds/op
// toward large k; the tail bound must refuse those windows and settle
// smaller.
func latencyAutoTable(n, nUpdates int, seed int64) []latencyAutoRow {
	const target = 40
	ar := arrivalRunners(n, nUpdates, seed)[0] // connectivity, mixed 0.75
	sched := arrivalSchedules(ar.ops, seed)[0] // poisson
	run := func(target int) (int, int64) {
		p := ar.mk()
		ab := dmpc.NewAutoBatcher(dmpc.AutoBatcherConfig{MaxK: 256, TargetP99Rounds: target})
		_, st := dmpc.Ingest(boundsOnlyPipeline{p}, sched.arr, dmpc.IngestorConfig{Auto: ab})
		return ab.K(), st.P99()
	}
	freeK, freeP99 := run(0)
	boundK, boundP99 := run(target)
	return []latencyAutoRow{{
		Name: ar.name + ", bounds-only", Gen: "poisson", Target: target,
		FreeK: freeK, BoundK: boundK, FreeP99: freeP99, BoundP99: boundP99,
	}}
}

func printArrivalTable(rows []arrivalRow, lrows []latencyAutoRow) {
	printRows("\nStreaming ingestion: per-op latency under timed arrivals (readfrac 0.75):",
		"Algorithm\tarrivals\tk\tops\tflushes\tp50\tp95\tp99\tmakespan\trounds/op",
		"%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2f", rows,
		func(r arrivalRow) []any {
			return []any{r.Name, r.Gen, r.K, r.Ops, r.Flushes, r.P50, r.P95, r.P99, r.Makespan, r.RoundsPerOp}
		},
		"(latency is rounds from arrival to answer; a larger batch bound amortizes",
		" rounds/op but holds early arrivals longer, which is the p99 column's story)")
	printRows("\nTail-constrained adaptive batching (TargetP99Rounds vs unconstrained):",
		"Algorithm\tarrivals\ttarget p99\tfree k\tfree p99\tbound k\tbound p99", "%s\t%s\t%d\t%d\t%d\t%d\t%d", lrows,
		func(r latencyAutoRow) []any {
			return []any{r.Name, r.Gen, r.Target, r.FreeK, r.FreeP99, r.BoundK, r.BoundP99}
		},
		"(the tail bound caps the knee search: windows whose worst-case p99 exceeds",
		" the target halve k and lower the search ceiling, so the constrained run",
		" settles at a smaller batch than the pure rounds/op knee)")
}
