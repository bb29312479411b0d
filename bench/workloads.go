package main

import (
	"math/rand"

	"dmpc"
	"dmpc/internal/core/amm"
	"dmpc/internal/core/dmm"
	"dmpc/internal/core/dyncon"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/sched"
)

// The load shape every workload shares: one driver goroutine on one
// processor, the parallel backend with the one worker that fits it. On the
// shared 2-vCPU reference box a second processor — a backend worker woken
// across cores almost every round, the collector marking beside the
// mutator — made cc-onecomp 40 % slower and three times as unsteady: how
// far apart the host places the two vCPUs changes from minute to minute.
const (
	benchProcs   = 1
	benchWorkers = 1
)

// Frozen workload parameters at -scale 1. The structure sizes of
// cc-uniform and mm-uniform are the issue's (µ=147/S=9128 and
// µ=2397/S=584192). Stream lengths and cc-onecomp's n are cut from the
// issue's so that one rep measures 2–3 s: a run is several reps, each
// with its own set-up and oracle check, and the benchmark contract gives
// a run about half a minute.
const (
	ccUniformN       = 100000
	ccUniformUpdates = 20000
	ccUniformK       = 64

	ccOnecompN       = 4096
	ccOnecompUpdates = 30000
	ccOnecompK       = 256

	mmUniformN       = 100000
	mmUniformUpdates = 8000
	mmUniformK       = 64

	ammIngestN        = 100000
	ammIngestEps      = 0.25
	ammIngestUpdates  = 75000
	ammIngestMaxBatch = 64
	ammIngestMaxAge   = 64
	ammIngestMeanGap  = 8
	ammIngestTenants  = 4

	readFrac = 0.5

	// Capacity hints handed to the constructors, in edges per vertex.
	uniformEdgesPerVertex = 6
	onecompEdgesPerVertex = 16
)

// ammWeights are the tenant shares amm-ingest's front door meters
// admission against.
var ammWeights = map[int]int{1: 1, 2: 2, 3: 3, 4: 4}

// input is one workload's generated load: everything the program under
// test receives. preload is applied during set-up; ops is the measured
// stream, in arrival order; arrivals timestamps it for the open-loop
// workload and is nil for the closed-loop ones. seed reaches the program
// only as the §6 structure's own source of randomness.
type input struct {
	seed     int64
	n        int
	preload  []graph.Op
	ops      []graph.Op
	arrivals []graph.Arrival
}

// instance is one structure under test, reached either through the
// public facade (pipeline set, claims nil) or built from the core
// directly for the traced run (claims set).
type instance struct {
	apply    func([]graph.Op) (graph.Results, mpc.MixedStats)
	claims   func(graph.Op) sched.Item
	cl       *mpc.Cluster
	close    func()
	pipeline dmpc.Pipeline

	// Driver-side oracle accessors, for the checks only.
	compOf func(v int) int64
	mates  func() []int
}

// workload is one registered benchmark workload.
type workload struct {
	name string
	k    int  // window size: SplitOps chunk, or the Ingest batch bound
	open bool // open loop through dmpc.Ingest on the virtual round clock

	gen    func(seed int64, scale float64) input
	facade func(in input, b mpc.BackendKind) instance
	direct func(in input, b mpc.BackendKind) instance
	check  func(w *workload, in input) checker
}

func scaled(x int, scale float64, floor int) int {
	return max(floor, int(float64(x)*scale))
}

func facadeOpts(b mpc.BackendKind) []dmpc.Option {
	return []dmpc.Option{dmpc.WithBackend(b), dmpc.WithWorkers(benchWorkers)}
}

func connectivityFacade(n, edges int, b mpc.BackendKind) instance {
	c := dmpc.NewConnectivity(n, edges, facadeOpts(b)...)
	return instance{apply: c.Apply, cl: c.Cluster(), close: c.Close, pipeline: c, compOf: c.CompOf}
}

func connectivityDirect(n, edges int, b mpc.BackendKind) instance {
	d := dyncon.New(dyncon.Config{N: n, Mode: dyncon.CC, ExpectedEdges: edges, Backend: b, Workers: benchWorkers})
	return instance{apply: d.ApplyOps, claims: d.StreamItem, cl: d.Cluster(), close: d.Close, compOf: d.CompOf}
}

// ammClaims is the bench-side copy of the facade's endpoint-level claims
// rule for the §6 structure, which exports no StreamItem: updates hold
// both endpoints exclusively, reads hold their vertex read-shared.
func ammClaims(op graph.Op) sched.Item {
	if op.IsQuery() {
		return sched.Item{Read: []int64{int64(op.U)}, Tenant: op.Tenant}
	}
	return sched.Item{Excl: []int64{int64(op.U), int64(op.V)}, Tenant: op.Tenant}
}

func randomPair(n int) func(*rand.Rand) graph.Op {
	return func(r *rand.Rand) graph.Op { return graph.OpQConnected(r.Intn(n), r.Intn(n)) }
}

func randomMateOf(n int) func(*rand.Rand) graph.Op {
	return func(r *rand.Rand) graph.Op { return graph.OpQMateOf(r.Intn(n)) }
}

// onecompChurn emits non-tree churn on a connected graph: an insert adds
// a fresh random edge (non-tree, since the graph is already spanned), a
// delete removes a present extra edge, so no update ever moves a
// component label and every write claims the one component.
func onecompChurn(n int, initial []graph.Update, treeEdges, length int, rng *rand.Rand) []graph.Update {
	g := graph.FromUpdates(n, initial)
	extra := make([]graph.Edge, 0, len(initial)-treeEdges+length)
	for _, up := range initial[treeEdges:] {
		extra = append(extra, graph.NormEdge(up.U, up.V))
	}
	updates := make([]graph.Update, 0, length)
	for len(updates) < length {
		if rng.Intn(2) == 0 || len(extra) == 0 {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || g.Has(u, v) {
				continue
			}
			g.Insert(u, v, 1)
			extra = append(extra, graph.NormEdge(u, v))
			updates = append(updates, graph.Update{Op: graph.Insert, U: u, V: v, W: 1})
			continue
		}
		i := rng.Intn(len(extra))
		e := extra[i]
		extra[i] = extra[len(extra)-1]
		extra = extra[:len(extra)-1]
		g.Delete(e.U, e.V)
		updates = append(updates, graph.Update{Op: graph.Delete, U: e.U, V: e.V})
	}
	return updates
}

var workloads = []workload{
	{
		name: "cc-uniform", k: ccUniformK,
		gen: func(seed int64, scale float64) input {
			rng := rand.New(rand.NewSource(seed))
			n := scaled(ccUniformN, scale, 64)
			ups := graph.RandomStream(n, scaled(ccUniformUpdates, scale, 64), .55, 50, rng)
			return input{seed: seed, n: n, ops: graph.MixedStream(ups, readFrac, randomPair(n), rng)}
		},
		facade: func(in input, b mpc.BackendKind) instance {
			return connectivityFacade(in.n, uniformEdgesPerVertex*in.n, b)
		},
		direct: func(in input, b mpc.BackendKind) instance {
			return connectivityDirect(in.n, uniformEdgesPerVertex*in.n, b)
		},
		check: newConnectivityChecker,
	},
	{
		name: "cc-onecomp", k: ccOnecompK,
		gen: func(seed int64, scale float64) input {
			rng := rand.New(rand.NewSource(seed))
			n := scaled(ccOnecompN, scale, 64)
			initial, _ := graph.TreeChurn(n, n/8, 0, 1, rng)
			ups := onecompChurn(n, initial, n-1, scaled(ccOnecompUpdates, scale, 64), rng)
			return input{
				seed:    seed,
				n:       n,
				preload: graph.UpdateOps(initial),
				ops:     graph.MixedStream(ups, readFrac, randomPair(n), rng),
			}
		},
		facade: func(in input, b mpc.BackendKind) instance {
			return connectivityFacade(in.n, onecompEdgesPerVertex*in.n, b)
		},
		direct: func(in input, b mpc.BackendKind) instance {
			return connectivityDirect(in.n, onecompEdgesPerVertex*in.n, b)
		},
		check: newConnectivityChecker,
	},
	{
		name: "mm-uniform", k: mmUniformK,
		gen: func(seed int64, scale float64) input {
			rng := rand.New(rand.NewSource(seed))
			n := scaled(mmUniformN, scale, 64)
			ups := graph.RandomStream(n, scaled(mmUniformUpdates, scale, 64), .55, 1, rng)
			return input{seed: seed, n: n, ops: graph.MixedStream(ups, readFrac, randomMateOf(n), rng)}
		},
		facade: func(in input, b mpc.BackendKind) instance {
			m := dmpc.NewMaximalMatching(in.n, uniformEdgesPerVertex*in.n, facadeOpts(b)...)
			return instance{apply: m.Apply, cl: m.Cluster(), close: m.Close, pipeline: m, mates: m.MateTable}
		},
		direct: func(in input, b mpc.BackendKind) instance {
			m := dmm.New(dmm.Config{N: in.n, CapEdges: uniformEdgesPerVertex * in.n, Backend: b, Workers: benchWorkers})
			return instance{apply: m.ApplyOps, claims: m.StreamItem, cl: m.Cluster(), close: m.Close, mates: m.MateTable}
		},
		check: newMaximalChecker,
	},
	{
		name: "amm-ingest", k: ammIngestMaxBatch, open: true,
		gen: func(seed int64, scale float64) input {
			rng := rand.New(rand.NewSource(seed))
			n := scaled(ammIngestN, scale, 64)
			ups := graph.RandomStream(n, scaled(ammIngestUpdates, scale, 64), .55, 1, rng)
			ops := graph.MixedStream(ups, readFrac, randomMateOf(n), rng)
			for i := range ops {
				ops[i].Tenant = 1 + i%ammIngestTenants
			}
			return input{seed: seed, n: n, ops: ops, arrivals: graph.PoissonArrivals(ops, ammIngestMeanGap, rng)}
		},
		facade: func(in input, b mpc.BackendKind) instance {
			m := dmpc.NewAlmostMaximalMatching(in.n, ammIngestEps, in.seed, facadeOpts(b)...)
			return instance{apply: m.Apply, cl: m.Cluster(), close: m.Close, pipeline: m, mates: m.MateTable}
		},
		direct: func(in input, b mpc.BackendKind) instance {
			m := amm.New(amm.Config{N: in.n, Eps: ammIngestEps, Seed: in.seed, Backend: b, Workers: benchWorkers})
			return instance{apply: m.ApplyOps, claims: ammClaims, cl: m.Cluster(), close: m.Close, mates: m.MateTable}
		},
		check: newAlmostMaximalChecker,
	},
}
