// Package dmpc is the public facade of this repository: a from-scratch Go
// reproduction of "Dynamic Algorithms for the Massively Parallel
// Computation Model" (Italiano, Lattanzi, Mirrokni, Parotsidis — SPAA
// 2019, arXiv:1905.09175).
//
// The DMPC model extends MPC to dynamic inputs: a cluster of µ machines
// with O(√N) words of memory each processes edge insertions and deletions,
// and an algorithm is charged per update for (i) rounds, (ii) active
// machines per round and (iii) communicated words per round. This package
// re-exports the simulated cluster and the paper's five dynamic algorithms
// plus the §7 reduction:
//
//   - NewMaximalMatching (§3): O(1) rounds, O(1) machines, O(√N) words.
//   - NewThreeHalvesMatching (§4): 3/2-approximate, O(n/√N) machines.
//   - NewConnectivity / NewMST (§5, §5.1): Euler-tour connectivity and
//     (1+ε)-MST, O(1) rounds, O(√N) machines and words.
//   - NewAlmostMaximalMatching (§6): (2+ε)-approximate, Õ(1) machines
//     and words.
//   - reduction.NewSim (§7): run any sequential dynamic algorithm in
//     O(u(N)) rounds on O(1) machines.
//
// # Unified op stream
//
// The paper charges updates and queries to the same three resources, so
// the facade ingests them through one front door: every structure
// implements Pipeline, whose Apply takes a single []Op stream mixing edge
// insertions, deletions and typed reads (OpConnected, OpComponentOf,
// OpMateOf, OpMatched) and returns the positional query answers plus a
// MixedStats window attributing rounds to the update and query halves.
// Under the hood the shared wave machinery (internal/sched) — resource-
// keyed conflict building with exclusive keys for writes and read-shared
// keys for queries, order-preserving precedence coloring, per-machine
// broadcast-budget packing, and the first-wave/recompute loop — sequences
// reads *into* the update waves: a query rides the wave that follows
// every conflicting earlier write and precedes every conflicting later
// one, so it is answered against exactly the prefix state its stream
// position implies (snapshot-consistent mid-batch reads, bit-identical to
// sequential replay — pinned by the FuzzMixedEquivalence harnesses)
// instead of waiting for cluster quiescence. Reads touching state no
// in-flight write conflicts with ride a write wave's rounds for free,
// which is where mixed workloads beat quiescing at every read run (see
// cmd/dmpcbench's mixed table, in BENCH_0015.json).
//
// # Tree-DP queries
//
// The §5 structures additionally maintain vertex weights and answer
// tree-aggregate reads over the maintained spanning forest, entirely on
// the Euler-tour machinery: SetWeight writes a vertex weight, QSubtreeSum
// sums the subtree of u when its tree is rooted at r, QPathSum sums the
// u–v tree path, and QTreeTop names a component's heaviest vertex. Every
// machine holds, per weighted vertex it owns, one tour-position anchor
// repaired by the same O(1)-word Shift descriptors that links and cuts
// already broadcast, so a query is a constant-round broadcast of an
// interval (or path) predicate answered with one partial sum per machine
// (DESIGN.md §2e). DP reads ride the same waves as every other read, so
// mixed link/cut/weight/query streams amortize below one round per query
// (cmd/dmpcbench's treedp table, in BENCH_0015.json); the FuzzTreeDPEquivalence
// harness pins answers bit-identical to sequential replay and to a
// tour-free oracle at every worker count. See examples/orgchart for a worked
// rollup workload.
//
// # Streaming ingestion
//
// When ops arrive over time rather than as a prepared slice, the Ingestor
// (see ingest.go) is the front door: it consumes timestamped Arrivals
// from a min-heap, admits each into the currently-forming wave set while
// its schedule claims don't conflict with the set's, and flushes the
// partial stream through Apply when a conflicting op arrives, an op ages
// past MaxAge, or the set reaches MaxBatch. Conflict admission is the one
// window-sizing rule: a window ends where the next arrival would
// serialize behind it, so nothing needs to learn a batch size. StreamStats
// attributes to every op its rounds-from-arrival-to-answer latency
// (p50/p95/p99). The
// dependency runs one way: Apply is one MixedStats window and buffers
// nothing, the Ingestor is the only thing that buffers, cuts and flushes,
// and every flush is one Apply call; the FuzzArrivalEquivalence harnesses
// pin that any arrival schedule yields answers bit-identical to Apply on
// the full slice. See cmd/dmpcbench's arrivals table, in BENCH_0015.json,
// for the latency picture.
//
// # Multi-tenant streams
//
// Ops carry a tenant id (Op.Tenant, zero = the single-tenant default:
// untagged streams behave exactly as before tenancy existed; tag an op
// with Op.ForTenant). The Ingestor is the one place that knows tenants.
// IngestorConfig.Weights meters each tenant's claim cost against a
// deficit-round-robin share of the per-round word budget while the
// forming set grows, so a flooding tenant cuts its windows early instead
// of filling them, and IngestorConfig.Admission (a TokenBucket per
// throttled tenant) refuses ops at the door, counting them in
// StreamStats.Rejected and answering refused reads with Answer.Rejected.
// StreamStats gains a per-tenant breakdown (TenantStreamStats) that
// charges each op an equal share of its flush window's rounds, while
// MixedStats counts rounds only. The cores below take no weights: a
// window the Ingestor admitted runs as one first-fit wave, so there is
// nothing left to meter. The §6 structure's claims carry no shared cost,
// so Weights does not change its schedule. See DESIGN.md §2c and
// cmd/dmpcbench's tenants table (in BENCH_0015.json) for the
// noisy-neighbor isolation picture.
//
// Apply is the only way a §3/§4/§5/§5.1 op is executed and billed: a
// single update is an op stream of length one, a write-only batch is
// UpdateOps(batch) (billed to the window's Updates half — one shared
// round-accounting window with non-conflicting updates parallelized into
// waves, per Nowicki–Onak, arXiv:2002.07800), and a read-only stream is
// one scatter/gather wave charged to the Queries half. There is one window
// kind, MixedStats, and one type for either half of it, HalfStats; update
// and query accounting never mix: a window partitions its rounds between
// its two halves by wave. The one other driver is the §6 structure's
// Insert/Delete, the paper's fixed-schedule per-update cycle, which is
// measurably not a length-one Apply (DESIGN.md §3); it bills the same
// window kind — a wave-free window of one update — and returns its Updates
// half. Driver-side oracle accessors (MateTable, and dyncon's
// CompOf/ForestEdges) bypass the cluster and are for validation only.
//
// See DESIGN.md for the system inventory, the op pipeline, and the
// deviations from the paper; cmd/dmpcbench measures the model costs —
// Table 1, the batch amortization curves and every table named above, in
// one run, gated against BENCH_0015.json — and bench/ measures time
// (DESIGN.md §4).
package dmpc

import (
	"fmt"

	"dmpc/internal/core/amm"
	"dmpc/internal/core/dmm"
	"dmpc/internal/core/dyncon"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/sched"
)

// Re-exported building blocks.
type (
	// Graph is the dynamic graph used to describe workloads.
	Graph = graph.Graph
	// Update is one edge insertion or deletion.
	Update = graph.Update
	// Weight is an edge weight.
	Weight = graph.Weight
	// Batch is an ordered sequence of updates; UpdateOps lifts it into an
	// op stream.
	Batch = graph.Batch
	// WaveStats is one concurrent wave's slice of a window; the wave
	// widths measure how much parallelism the scheduler extracted, and
	// Queries counts the reads that rode the wave.
	WaveStats = mpc.WaveStats
	// Op is one operation of a unified op stream: an edge insertion, an
	// edge deletion, or a typed read.
	Op = graph.Op
	// OpKind classifies an Op.
	OpKind = graph.OpKind
	// Answer is one query's result (Bool for OpConnected/OpMatched, Int
	// for OpComponentOf/OpMateOf and the tree-DP reads OpSubtreeSum,
	// OpPathSum and OpTreeTop).
	Answer = graph.Answer
	// Results holds one Answer per query op of a stream, in stream order.
	Results = graph.Results
	// MixedStats is the round-accounting window of one mixed op stream,
	// split into its update and query halves.
	MixedStats = mpc.MixedStats
	// HalfStats is either half of a MixedStats window — the shared round
	// accounting of its updates (rounds, active machines and words per
	// round) or of its query-only waves — and what one §6 per-update cycle
	// (AlmostMaximalMatching.Insert/Delete) returns.
	HalfStats = mpc.HalfStats
	// Cluster is the simulated DMPC cluster.
	Cluster = mpc.Cluster
)

// Option configures a structure at construction time.
type Option func(*options)

type options struct {
	workers int
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithBackend does nothing.
//
// Deprecated: WithWorkers alone decides how a structure's handlers run.
func WithBackend(mpc.BackendKind) Option { return func(*options) {} }

// WithWorkers sets how many goroutines run each round's machine handlers
// (DESIGN.md §2d): at most 1, the default, runs them all inline on the
// calling goroutine; n ≥ 2 shards the machines over up to n − 1 long-lived
// worker goroutines plus the caller, and the structure must be released
// with Close when done. The worker count never changes answers or
// accounting, only wall-clock time.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// Operation kinds for Update.Op and Op.Kind.
const (
	Insert = graph.Insert
	Delete = graph.Delete

	OpInsert      = graph.OpInsert
	OpDelete      = graph.OpDelete
	OpSetWeight   = graph.OpSetWeight
	OpConnected   = graph.OpConnected
	OpComponentOf = graph.OpComponentOf
	OpMateOf      = graph.OpMateOf
	OpMatched     = graph.OpMatched
	OpSubtreeSum  = graph.OpSubtreeSum
	OpPathSum     = graph.OpPathSum
	OpTreeTop     = graph.OpTreeTop
)

// Stream lifting, re-exported for workload building.
var (
	// OpOf lifts an Update into an Op.
	OpOf = graph.OpUpdate
	// UpdateOps lifts a write-only Batch into an op stream.
	UpdateOps = graph.UpdateOps
	// CountOps counts a stream's operations by side.
	CountOps = graph.CountOps
)

// Op constructors: workload code reads as the ops it performs.

// Ins returns an insert op for the unit-weight edge (u,v); use InsW for
// a weighted insert (MST workloads).
func Ins(u, v int) Op { return graph.OpIns(u, v, 1) }

// InsW returns an insert op for the edge (u,v) with weight w.
func InsW(u, v int, w Weight) Op { return graph.OpIns(u, v, w) }

// Del returns a delete op for the edge (u,v).
func Del(u, v int) Op { return graph.OpDel(u, v) }

// QConnected returns a connectivity query op: are u and v in one
// component?
func QConnected(u, v int) Op { return graph.OpQConnected(u, v) }

// QComponentOf returns a component-label query op for v.
func QComponentOf(v int) Op { return graph.OpQComponentOf(v) }

// QMateOf returns a mate query op for v (-1 answers "free").
func QMateOf(v int) Op { return graph.OpQMateOf(v) }

// QMatched returns a matched-edge query op: is (u,v) in the matching?
func QMatched(u, v int) Op { return graph.OpQMatched(u, v) }

// SetWeight returns a vertex-weight write op: assign weight w to vertex
// v (weights default to 0; the write is an update, not a read, and
// orders against structural ops on v's component).
func SetWeight(v int, w Weight) Op { return graph.OpSetW(v, w) }

// QSubtreeSum returns a subtree-aggregate query op: the weight sum over
// the subtree of u when u's tree in the maintained forest is rooted at
// r. When r == u — or r lies in another component — the subtree is u's
// whole component.
func QSubtreeSum(r, u int) Op { return graph.OpQSubtreeSum(r, u) }

// QPathSum returns a tree-path-aggregate query op: the weight sum along
// the u–v path of the maintained forest, endpoints included (0 when u
// and v are disconnected).
func QPathSum(u, v int) Op { return graph.OpQPathSum(u, v) }

// QTreeTop returns a component-argmax query op: the id of the heaviest
// vertex of u's component (smallest id on ties; every vertex counts, at
// weight 0 when never written).
func QTreeTop(u int) Op { return graph.OpQTreeTop(u) }

// Chunk splits an update stream into consecutive batches of at most k
// updates, preserving order.
func Chunk(updates []Update, k int) []Batch { return graph.Chunk(updates, k) }

// SplitOps splits an op stream into consecutive chunks of at most k ops,
// preserving the relative update/query order.
func SplitOps(ops []Op, k int) [][]Op { return graph.SplitOps(ops, k) }

// NewGraph returns an empty dynamic graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// Pipeline is the unified front door every structure in this package
// implements: one scheduled pipeline ingesting updates and queries as a
// single op stream, with snapshot-consistent in-wave reads. Apply returns
// the answers positionally over the stream's queries (the j-th Answer
// answers the j-th op with IsQuery() true) and the mixed window's
// accounting. Each structure answers its own query kinds — OpConnected
// and OpComponentOf on Connectivity/MST, OpMateOf and OpMatched on the
// matchings — and panics on a kind it cannot answer or on an op naming a
// vertex outside [0, n). Only this package's structures implement it:
// its two unexported methods hand the Ingestor the vertex-range check and
// the per-op claims oracle that admission reads.
type Pipeline interface {
	Apply(ops []Op) (Results, MixedStats)
	Cluster() *Cluster
	// Close releases the cluster's worker goroutines (WithWorkers ≥ 2);
	// with one worker there are none. The structure must not be used
	// afterwards.
	Close()

	checkOp(Op)
	streamClaims() func(graph.Op) sched.Item
}

// Compile-time assertions: all four structures implement Pipeline.
var (
	_ Pipeline = (*Connectivity)(nil)
	_ Pipeline = (*MST)(nil)
	_ Pipeline = (*MaximalMatching)(nil)
	_ Pipeline = (*AlmostMaximalMatching)(nil)
)

// pipe is the facade plumbing shared by all four structures — the one
// copy of the Apply front door, the vertex-range check, the per-op claims
// oracle the Ingestor admits arrivals with, and the Cluster accessor.
type pipe struct {
	n      int // vertices: every op must name vertices in [0, n)
	apply  func([]graph.Op) (graph.Results, mpc.MixedStats)
	claims func(graph.Op) sched.Item
	cl     *mpc.Cluster
}

// Apply processes a mixed op stream through the structure's scheduled
// pipeline in one MixedStats window; see Pipeline. It is the core's
// ApplyOps and nothing else: no buffering, no cutting — an Ingestor flush
// is exactly one call of it. It panics, before any op runs, on an op
// naming a vertex outside [0, n).
func (p pipe) Apply(ops []Op) (Results, MixedStats) {
	for _, op := range ops {
		p.checkOp(op)
	}
	return p.apply(ops)
}

// checkOp panics on an op naming a vertex outside [0, n): the cores index
// per-vertex state by it, so such an op would otherwise read another
// vertex's state or fail with a bare index error.
func (p pipe) checkOp(op Op) {
	if v, out := op.Outside(p.n); out {
		panic(fmt.Sprintf("dmpc: op %v names vertex %d outside [0, %d)", op, v, p.n))
	}
}

// Cluster exposes the underlying cluster accounting.
func (p pipe) Cluster() *Cluster { return p.cl }

// Close releases the cluster's worker goroutines; see Pipeline.
func (p pipe) Close() { p.cl.Close() }

// streamClaims exposes the structure's per-op claims oracle to the
// Ingestor's admission control.
func (p pipe) streamClaims() func(graph.Op) sched.Item { return p.claims }

// Connectivity maintains the connected components of a dynamic graph (§5).
type Connectivity struct {
	pipe
	d *dyncon.D
}

// NewConnectivity builds a fully-dynamic connected-components structure on
// n vertices, sized for expectedEdges simultaneous edges (0 = default).
func NewConnectivity(n, expectedEdges int, opts ...Option) *Connectivity {
	o := buildOptions(opts)
	d := dyncon.New(dyncon.Config{N: n, Mode: dyncon.CC, ExpectedEdges: expectedEdges, Workers: o.workers})
	return &Connectivity{pipe: pipe{n, d.ApplyOps, d.StreamItem, d.Cluster()}, d: d}
}

// CompOf returns v's component label by driver-side oracle access —
// validation only, no protocol accounting. Use a QComponentOf op for
// the protocol query.
func (c *Connectivity) CompOf(v int) int64 { return c.d.CompOf(v) }

// WeightOf returns v's vertex weight by driver-side oracle access —
// validation only, no protocol accounting. Weights are written with
// SetWeight ops and read in aggregate by the tree-DP queries.
func (c *Connectivity) WeightOf(v int) int64 { return c.d.WeightOf(v) }

// MST maintains a (1+ε)-approximate minimum spanning forest (§5.1); eps 0
// maintains an exact MSF.
type MST struct {
	pipe
	d *dyncon.D
}

// NewMST builds a fully-dynamic MSF structure.
func NewMST(n int, eps float64, expectedEdges int, opts ...Option) *MST {
	o := buildOptions(opts)
	d := dyncon.New(dyncon.Config{N: n, Mode: dyncon.MST, Eps: eps, ExpectedEdges: expectedEdges, Workers: o.workers})
	return &MST{pipe: pipe{n, d.ApplyOps, d.StreamItem, d.Cluster()}, d: d}
}

// Weight returns the maintained forest's total (bucketed) weight
// (driver-side oracle access; validation only).
func (m *MST) Weight() Weight { return m.d.ForestWeight() }

// ForestEdges returns the maintained forest (driver-side oracle access;
// validation only).
func (m *MST) ForestEdges() []graph.WEdge { return m.d.ForestEdges() }

// WeightOf returns v's vertex weight by driver-side oracle access —
// validation only, no protocol accounting.
func (m *MST) WeightOf(v int) int64 { return m.d.WeightOf(v) }

// MaximalMatching maintains a maximal matching (§3).
type MaximalMatching struct {
	pipe
	m *dmm.M
}

// NewMaximalMatching builds the §3 structure for n vertices and at most
// capEdges simultaneous edges.
func NewMaximalMatching(n, capEdges int, opts ...Option) *MaximalMatching {
	o := buildOptions(opts)
	m := dmm.New(dmm.Config{N: n, CapEdges: capEdges, Workers: o.workers})
	return &MaximalMatching{pipe: pipe{n, m.ApplyOps, m.StreamItem, m.Cluster()}, m: m}
}

// NewThreeHalvesMatching builds the §4 structure: a 3/2-approximate
// maximum matching (the graph must start empty, which it does).
func NewThreeHalvesMatching(n, capEdges int, opts ...Option) *MaximalMatching {
	o := buildOptions(opts)
	m := dmm.New(dmm.Config{N: n, CapEdges: capEdges, ThreeHalves: true, Workers: o.workers})
	return &MaximalMatching{pipe: pipe{n, m.ApplyOps, m.StreamItem, m.Cluster()}, m: m}
}

// MateTable returns the current matching as a mate table (-1 = free) by
// driver-side oracle access — validation only, no protocol accounting. Use
// QMateOf/QMatched ops for protocol queries.
func (mm *MaximalMatching) MateTable() []int { return mm.m.MateTable() }

// AlmostMaximalMatching maintains a (2+ε)-approximate matching (§6).
type AlmostMaximalMatching struct {
	pipe
	m *amm.M
}

// NewAlmostMaximalMatching builds the §6 structure.
func NewAlmostMaximalMatching(n int, eps float64, seed int64, opts ...Option) *AlmostMaximalMatching {
	o := buildOptions(opts)
	m := amm.New(amm.Config{N: n, Eps: eps, Seed: seed, Workers: o.workers})
	return &AlmostMaximalMatching{pipe: pipe{n, m.ApplyOps, m.StreamItem, m.Cluster()}, m: m}
}

// Insert adds an edge through the paper's fixed-schedule per-update cycle
// (seven rounds: the edge update plus one Δ-bounded batch of every
// subscheduler) — the one sanctioned driver besides Apply, kept because it
// is measurably not a length-one Apply (see amm.M.Insert, DESIGN.md §3).
// The cycle is billed as a window of one update; its update half returns.
// Like Apply, it panics on a vertex outside [0, n).
func (am *AlmostMaximalMatching) Insert(u, v int) HalfStats {
	am.checkOp(graph.OpIns(u, v, 1))
	return am.m.Insert(u, v)
}

// Delete removes an edge through the per-update cycle; see Insert.
func (am *AlmostMaximalMatching) Delete(u, v int) HalfStats {
	am.checkOp(graph.OpDel(u, v))
	return am.m.Delete(u, v)
}

// MateTable returns the current matching as a mate table (-1 = free) by
// driver-side oracle access — validation only, no protocol accounting. Use
// QMateOf/QMatched ops for protocol queries.
func (am *AlmostMaximalMatching) MateTable() []int { return am.m.MateTable() }
