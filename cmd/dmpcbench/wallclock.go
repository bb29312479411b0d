package main

import (
	"math/rand"

	"dmpc"
	"dmpc/internal/core/amm"
	"dmpc/internal/core/dmm"
	"dmpc/internal/core/dyncon"
	"dmpc/internal/graph"
)

// benchWorkers carries the -workers flag value; every table's structure
// constructions route through the wrappers below, so one flag retargets
// the whole measurement at a worker count. The tree-DP and wallclock
// tables ignore it and always measure compareWorkers head to head.
var benchWorkers int

// compareWorkers are the worker counts the tree-DP and wallclock tables
// measure side by side: every handler inline on the driver, and four
// shards.
var compareWorkers = []int{1, 4}

func newDyncon(cfg dyncon.Config) *dyncon.D {
	cfg.Workers = benchWorkers
	return dyncon.New(cfg)
}

func newDMM(cfg dmm.Config) *dmm.M {
	cfg.Workers = benchWorkers
	return dmm.New(cfg)
}

func newAMM(cfg amm.Config) *amm.M {
	cfg.Workers = benchWorkers
	return amm.New(cfg)
}

// benchOpts translates the flag value into facade options for tables
// that build structures through the dmpc front door.
func benchOpts() []dmpc.Option {
	return []dmpc.Option{dmpc.WithWorkers(benchWorkers)}
}

// --- worker-count ladder ---------------------------------------------------

// wallRow is one (algorithm, n, workers) cell of the inline-vs-sharded
// ladder (the document's wallclock block): the same batched update
// stream measured at each compareWorkers count. Rounds do not depend on
// the worker count, by the determinism rule, and the snapshot test
// requires the two rows of a pair to agree; what the worker counts
// compete on is time, which bench/ measures.
type wallRow struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	K           int     `json:"k"`
	Ops         int     `json:"ops"`
	Workers     int     `json:"workers"`
	RoundsPerOp float64 `json:"rounds_per_op"`
}

// wallK is the batch size of the ladder's runs: large enough to amortize
// per-batch scheduling, small enough that every n sees many batches.
const wallK = 64

// wallNs is the input-size ladder: the Table 1 default plus the three
// orders of magnitude the worker pool and the sparse-activation round
// engine exist for. -wallmax caps it (BENCH_0015.json stops at 10^4; the
// full climb takes minutes).
var wallNs = []int{128, 10_000, 100_000, 1_000_000}

// wallUpdates is the ladder's stream length, pinned independently of
// -updates so its rounds/op stay comparable with BENCH_0015.json's.
const wallUpdates = 200

// wallRunner builds one algorithm instance at a worker count and returns
// its batch front door plus the cluster teardown.
type wallRunner struct {
	name string
	mk   func(n, workers int) (run runner, closeFn func())
}

func wallRunners() []wallRunner {
	return []wallRunner{
		{"Connected comps (§5)", func(n, workers int) (runner, func()) {
			d := dyncon.New(dyncon.Config{N: n, Mode: dyncon.CC, ExpectedEdges: 6 * n, Workers: workers})
			return window(d.ApplyOps), d.Close
		}},
		{"Maximal matching (§3)", func(n, workers int) (runner, func()) {
			m := dmm.New(dmm.Config{N: n, CapEdges: 6 * n, Workers: workers})
			return window(m.ApplyOps), m.Close
		}},
	}
}

// measureWall measures one (algorithm, n) cell at both compareWorkers
// counts, inline row first: one replay of the chunked stream on a fresh
// instance each.
func measureWall(wr wallRunner, n int, stream []graph.Update) []wallRow {
	var rows []wallRow
	for _, w := range compareWorkers {
		run, closeFn := wr.mk(n, w)
		t := replay(stream, wallK, run)
		closeFn()
		rows = append(rows, wallRow{Name: wr.name, N: n, K: wallK, Ops: t.Ops, Workers: w, RoundsPerOp: per(t.Rounds, t.Ops)})
	}
	return rows
}

// wallTable climbs the n ladder up to wallMax, measuring every algorithm
// at both compareWorkers counts over the same stream.
func wallTable(seed int64, wallMax int) []wallRow {
	var rows []wallRow
	for _, n := range wallNs {
		if n > wallMax {
			continue
		}
		stream := graph.RandomStream(n, wallUpdates, 0.55, 50, rand.New(rand.NewSource(seed+300)))
		for _, wr := range wallRunners() {
			rows = append(rows, measureWall(wr, n, stream)...)
		}
	}
	return rows
}

func printWallTable(rows []wallRow) {
	printRows("\nInline vs four worker shards (same stream, k=64):",
		"Algorithm\tn\tworkers\tops\trounds/op", "%s\t%d\t%d\t%d\t%.2f", rows,
		func(r wallRow) []any { return []any{r.Name, r.N, r.Workers, r.Ops, r.RoundsPerOp} },
		"(rounds/op does not depend on the worker count — the determinism rule;",
		" what sharding the handlers buys or costs in time is bench/'s to measure)")
}
