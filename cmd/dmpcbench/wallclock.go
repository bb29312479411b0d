package main

import (
	"math/rand"
	"runtime"
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
// time. Rounds are backend-independent by the determinism rule
// (checkBaseline enforces the equality); time is what the backends compete
// on, but it is a property of the machine, so the ns columns are printed
// and never enter the document (bench/ is the time harness).
type wallRow struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	K           int     `json:"k"`
	Ops         int     `json:"ops"`
	Backend     string  `json:"backend"`
	RoundsPerOp float64 `json:"rounds_per_op"`
	rounds      int
	elapsed     time.Duration // the replay's makespan
	// AllocsPerRound is the heap-allocation bill per round (Mallocs delta
	// over the measured section, construction excluded) — the figure the
	// sparse-activation pooling drives toward zero and checkBaseline gates
	// outright. Absent (0) in pre-PR-9 snapshots.
	AllocsPerRound float64 `json:"allocs_per_round,omitempty"`
}

// wallK is the batch size of the wall-clock runs: large enough to
// amortize per-batch scheduling, small enough that every n sees many
// batches.
const wallK = 64

// wallNs is the input-size ladder: the Table 1 default plus the three
// orders of magnitude the parallel backend and the sparse-activation
// round engine exist for. -wallmax caps it (CI and BENCH_0015.json stop
// at 10^4; the full climb takes minutes).
var wallNs = []int{128, 10_000, 100_000, 1_000_000}

// wallUpdates is the ladder's stream length, pinned independently of
// -updates so its rounds/op stay comparable with BENCH_0015.json's.
const wallUpdates = 200

// wallRunner builds one algorithm instance pinned to a backend and
// returns its batch front door plus the cluster teardown.
type wallRunner struct {
	name string
	mk   func(n int, be mpc.BackendKind) (run runner, closeFn func())
}

func wallRunners() []wallRunner {
	return []wallRunner{
		{"Connected comps (§5)", func(n int, be mpc.BackendKind) (runner, func()) {
			d := dyncon.New(dyncon.Config{N: n, Mode: dyncon.CC, ExpectedEdges: 6 * n, Backend: be})
			return window(d.ApplyOps), d.Close
		}},
		{"Maximal matching (§3)", func(n int, be mpc.BackendKind) (runner, func()) {
			m := dmm.New(dmm.Config{N: n, CapEdges: 6 * n, Backend: be})
			return window(m.ApplyOps), m.Close
		}},
	}
}

// measureWall measures one (algorithm, n) cell on both backends, sim row
// first: one replay of the chunked stream on a fresh instance each.
// Construction is outside the clock, and the replay starts from a forced
// collection so GC pacing inherited from earlier tables cannot leak in.
// allocs is the Mallocs delta of the measured section; the ReadMemStats
// calls sit outside the clock.
func measureWall(wr wallRunner, n int, stream []graph.Update) []wallRow {
	var rows []wallRow
	for _, be := range []mpc.BackendKind{mpc.BackendSim, mpc.BackendParallel} {
		runtime.GC()
		run, closeFn := wr.mk(n, be)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		t := replay(stream, wallK, run)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		closeFn()
		rows = append(rows, wallRow{
			Name: wr.name, N: n, K: wallK, Ops: t.Ops, Backend: be.String(),
			RoundsPerOp: per(t.Rounds, t.Ops), AllocsPerRound: per(int(after.Mallocs-before.Mallocs), t.Rounds),
			rounds: t.Rounds, elapsed: elapsed,
		})
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
	printRows("\nWall-clock trajectory: sim oracle vs parallel backend (same stream, k=64):",
		"Algorithm\tn\tbackend\tops\trounds/op\tns/op\tns/round\tallocs/round\tmakespan",
		"%s\t%d\t%s\t%d\t%.2f\t%.0f\t%.0f\t%.1f\t%s", rows,
		func(r wallRow) []any {
			return []any{r.Name, r.N, r.Backend, r.Ops, r.RoundsPerOp, per(int(r.elapsed), r.Ops), per(int(r.elapsed), r.rounds), r.AllocsPerRound, r.elapsed}
		},
		"(rounds/op is backend-independent — the determinism rule — so the ns columns",
		" isolate pure runtime overhead: long-lived channel-woken workers and one",
		" context slab per round against per-machine goroutine spawns and allocations)")
}
