package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"dmpc"
	"dmpc/internal/core/amm"
	"dmpc/internal/core/dmm"
	"dmpc/internal/core/dyncon"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// benchBackend and benchWorkers carry the -backend/-workers flag values;
// every table's structure constructions route through the wrappers below,
// so one flag retargets the whole measurement at an execution backend.
// The wall-clock table ignores them and always measures both backends
// head to head.
var (
	benchBackend mpc.BackendKind
	benchWorkers int
)

func newDyncon(cfg dyncon.Config) *dyncon.D {
	cfg.Backend = benchBackend
	cfg.Workers = benchWorkers
	return dyncon.New(cfg)
}

func newDMM(cfg dmm.Config) *dmm.M {
	cfg.Backend = benchBackend
	cfg.Workers = benchWorkers
	return dmm.New(cfg)
}

func newAMM(cfg amm.Config) *amm.M {
	cfg.Backend = benchBackend
	cfg.Workers = benchWorkers
	return amm.New(cfg)
}

// benchOpts translates the flag values into facade options for tables
// that build structures through the dmpc front door.
func benchOpts() []dmpc.Option {
	return []dmpc.Option{dmpc.WithBackend(benchBackend), dmpc.WithWorkers(benchWorkers)}
}

// --- wall-clock trajectory -------------------------------------------------

// wallRow is one (algorithm, n, backend) cell of the wall-clock table:
// the same batched update stream measured in model rounds AND in real
// time, so the snapshot records ns/op and makespan next to rounds/op.
// Rounds are backend-independent by the determinism rule (checkBaseline
// enforces the equality); time is what the backends compete on.
type wallRow struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	K           int     `json:"k"`
	Ops         int     `json:"ops"`
	Backend     string  `json:"backend"`
	RoundsPerOp float64 `json:"rounds_per_op"`
	NsPerOp     float64 `json:"ns_per_op"`
	MakespanNs  int64   `json:"makespan_ns"`
	NsPerRound  float64 `json:"ns_per_round"`
	// AllocsPerRound is the heap-allocation bill per round (Mallocs delta
	// over the measured section of the fastest rep, construction excluded)
	// — the figure the sparse-activation pooling drives toward zero and
	// checkBaseline gates outright. Absent (0) in pre-PR-9 snapshots.
	AllocsPerRound float64 `json:"allocs_per_round,omitempty"`
}

// wallK is the batch size of the wall-clock runs: large enough to
// amortize per-batch scheduling, small enough that every n sees many
// batches.
const wallK = 64

// wallNs is the input-size ladder: the Table 1 default plus the three
// orders of magnitude the parallel backend and the sparse-activation
// round engine exist for. -wallmax caps it (CI and BENCH_0015.json stop
// at 10^4; BENCH_0009.json records the full climb).
var wallNs = []int{128, 10_000, 100_000, 1_000_000}

// wallUpdates is the ladder's stream length, pinned independently of
// -updates so its rounds/op stay comparable with BENCH_0009.json's.
const wallUpdates = 200

// wallRunner builds one algorithm instance pinned to a backend and
// returns its batch front door plus the cluster teardown.
type wallRunner struct {
	name string
	mk   func(n int, be mpc.BackendKind) (apply func(graph.Batch) mpc.BatchStats, closeFn func())
}

func wallRunners() []wallRunner {
	return []wallRunner{
		{"Connected comps (§5)", func(n int, be mpc.BackendKind) (func(graph.Batch) mpc.BatchStats, func()) {
			d := dyncon.New(dyncon.Config{N: n, Mode: dyncon.CC, ExpectedEdges: 6 * n, Backend: be})
			return perBatch(d.ApplyOps), d.Close
		}},
		{"Maximal matching (§3)", func(n int, be mpc.BackendKind) (func(graph.Batch) mpc.BatchStats, func()) {
			m := dmm.New(dmm.Config{N: n, CapEdges: 6 * n, Backend: be})
			return perBatch(m.ApplyOps), m.Close
		}},
	}
}

// wallReps is how many times each (algorithm, n, backend) cell replays
// its stream; the reported makespan is the fastest rep. Reps alternate
// between the two backends so each pair shares machine conditions, and
// minima filter the one-sided noise (GC pacing, scheduler interference)
// that a single shot would bake into the snapshot the baseline gate
// compares against.
const wallReps = 5

// measureWallOnce times one backend over one replay of the chunked
// stream on a fresh instance. Construction is outside the clock — the
// makespan measures steady-state op processing — and, like the testing
// package before each benchmark, the rep starts from a forced collection
// so GC pacing inherited from earlier tables or the other backend's reps
// cannot leak into this one. allocs is the heap-allocation count of the
// measured section (Mallocs delta, construction excluded); the
// ReadMemStats calls sit outside the clock.
func measureWallOnce(wr wallRunner, n int, stream []graph.Update, be mpc.BackendKind) (rounds, ops int, allocs uint64, elapsed int64) {
	runtime.GC()
	apply, closeFn := wr.mk(n, be)
	defer closeFn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, b := range graph.Chunk(stream, wallK) {
		st := apply(b)
		rounds += st.Rounds
		ops += st.Updates
	}
	elapsed = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	return rounds, ops, after.Mallocs - before.Mallocs, elapsed
}

// measureWall measures one (algorithm, n) cell on both backends,
// interleaving wallReps replays of each, and returns the sim row then
// the parallel row (each the fastest rep).
func measureWall(wr wallRunner, n int, stream []graph.Update) []wallRow {
	backends := []mpc.BackendKind{mpc.BackendSim, mpc.BackendParallel}
	rows := make([]wallRow, len(backends))
	for rep := 0; rep < wallReps; rep++ {
		for bi, be := range backends {
			rounds, ops, allocs, elapsed := measureWallOnce(wr, n, stream, be)
			if rows[bi].MakespanNs == 0 || elapsed < rows[bi].MakespanNs {
				rows[bi] = wallRow{Name: wr.name, N: n, K: wallK, Ops: ops, Backend: be.String(), MakespanNs: elapsed}
				if ops > 0 {
					rows[bi].RoundsPerOp = float64(rounds) / float64(ops)
					rows[bi].NsPerOp = float64(elapsed) / float64(ops)
				}
				if rounds > 0 {
					rows[bi].NsPerRound = float64(elapsed) / float64(rounds)
					rows[bi].AllocsPerRound = float64(allocs) / float64(rounds)
				}
			}
		}
	}
	return rows
}

// wallTable climbs the n ladder up to wallMax, measuring every algorithm
// on both backends over the same stream.
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
	fmt.Println("\nWall-clock trajectory: sim oracle vs parallel backend (same stream, k=64):")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Algorithm\tn\tbackend\tops\trounds/op\tns/op\tns/round\tallocs/round\tmakespan\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%.2f\t%.0f\t%.0f\t%.1f\t%s\n",
			r.Name, r.N, r.Backend, r.Ops, r.RoundsPerOp, r.NsPerOp, r.NsPerRound, r.AllocsPerRound,
			time.Duration(r.MakespanNs))
	}
	w.Flush()
	fmt.Println("(rounds/op is backend-independent — the determinism rule — so the ns columns")
	fmt.Println(" isolate pure runtime overhead: long-lived channel-woken workers and one")
	fmt.Println(" context slab per round against per-machine goroutine spawns and allocations)")
}
