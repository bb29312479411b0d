// Package dyncon implements §5 of the paper: fully-dynamic connected
// components — and, in MST mode, the §5.1 (1+ε)-approximate minimum
// spanning tree — in the DMPC model, with O(1) rounds per update in the
// worst case, O(√N) active machines and O(√N) total communication per
// round.
//
// # Distribution of state
//
// Vertices are hash-partitioned over the machines; the owner of a vertex
// stores its component label and its incident edge records. A tree edge
// record holds the four Euler-tour positions of its two arcs (from which
// the child endpoint and its subtree interval [f(child), l(child)] can be
// read off locally — the inner position pair). A non-tree edge record
// holds one anchor position per endpoint plus a per-anchor component
// label; an anchor is any surviving tour appearance of that endpoint.
// Component sizes live on a registry machine per component (component id
// mod µ).
//
// # Protocol
//
// Every update is orchestrated by the owner of the update's first
// endpoint. It gathers f/l values from the endpoint owners (computed on
// demand from their local arc positions — the paper's "x and y can simply
// learn those by sending and receiving an appropriate message"), reads
// component sizes from the registry, and then sends a single O(1)-word
// message carrying the etour.Shift descriptors. The paper broadcasts it to
// all µ machines; here it goes only to the machines holding a vertex of the
// components it names, whose set each registry keeps beside the size and
// returns with it — a full broadcast is the worst case, taken for a set of
// µ/2 machines or more. Every recipient applies the shifts to every
// position it stores for the components they name (walking the records
// filed on those labels' rings); because the maps are conditioned on
// position values and component labels only, mirrored anchors stay
// consistent with no further communication — this is the property §5
// leverages to avoid Ω(N) neighbor updates. After a cut, machines scan
// their non-tree records for anchors in different components (a crossing
// edge) and report at most one candidate each; the orchestrator links the
// winner back in, promoting it to a tree edge.
//
// In MST mode an insertion into a connected component first locates the
// maximum-weight tree edge on the cycle via the ancestor trick: a tree
// edge lies on the x..y path iff its child interval contains exactly one
// of f(x), f(y), so every machine can evaluate its own records against the
// broadcast f values and report a local maximum.
//
// The tree-DP layer (internal/treedp, wired in treedp.go) extends the
// same machinery to vertex-weight aggregates: OpSetWeight installs a
// per-vertex weight record anchored at an arbitrary tour appearance,
// repaired by the very Shift descriptors links and cuts already
// broadcast, and OpSubtreeSum / OpPathSum / OpTreeTop ride ApplyOps
// waves as broadcast-predicate/gather queries over those anchors.
package dyncon

import (
	"fmt"
	"slices"

	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/sched"
)

// Mode selects plain connectivity or minimum-spanning-tree maintenance.
type Mode int

const (
	// CC maintains an arbitrary spanning forest (connected components).
	CC Mode = iota
	// MST maintains a minimum spanning forest of the (bucketed) weights.
	MST
)

// Config configures a dynamic connectivity instance.
type Config struct {
	N    int  // number of vertices
	Mode Mode // CC or MST
	// Eps, for MST mode, buckets weights by powers of (1+Eps) as in the
	// §5.1 preprocessing; 0 keeps weights exact (the forest is then an
	// exact MSF, which the tests exploit).
	Eps float64
	// ExpectedEdges sizes the cluster; Machines, when positive, overrides
	// the µ derived from it.
	Machines      int
	ExpectedEdges int
	// Workers is the cluster's mpc.Config.Workers: at most 1 runs every
	// handler inline on the driver, w ≥ 2 shards the machines over worker
	// goroutines and requires Close.
	Workers int
	// Deprecated: ignored; Workers alone decides how handlers run.
	Backend mpc.BackendKind
}

// D is a fully-dynamic connectivity/MST structure over a simulated DMPC
// cluster.
type D struct {
	cfg     Config
	cluster *mpc.Cluster
	shards  []*shard
	packer  *sched.Admitter  // forms every wave, first-fit
	scratch sched.Item       // the item ApplyOps reads claims into, slices reused
	out     mpc.Outbox[wire] // the driver's payloads, slabbed by the round they are sent before
	seq     int64            // update sequence number, for fresh component ids

	// wavePerm, when set by a test, permutes the injection order of every
	// scheduled wave in place — the hook behind the permutation-
	// commutativity property test. Production code leaves it nil.
	wavePerm func(wave []int)
	// auditFail, when set by a test (AuditClaims), makes ApplyOps check the
	// packer's view of every pending op before every wave.
	auditFail func(format string, args ...any)
}

// New builds the structure with an empty graph; an initial graph is
// loaded as inserts through ApplyOps.
func New(cfg Config) *D {
	if cfg.N <= 0 {
		panic("dyncon: need at least one vertex")
	}
	exp := cfg.ExpectedEdges
	if exp <= 0 {
		exp = 4 * cfg.N
	}
	auto := mpc.Auto(cfg.N+2*exp, 8)
	if cfg.Machines > 0 {
		auto.Machines = cfg.Machines
	}
	// The orchestrator's broadcast ships a ~31-word shift descriptor to
	// every machine in one round; the per-round I/O cap S must absorb it.
	// Both S and µ are Θ(√N), so this only pins the constant.
	if min := 40*auto.Machines + 64; auto.MemWords < min {
		auto.MemWords = min
	}
	auto.Workers = cfg.Workers
	d := &D{cfg: cfg}
	d.packer = sched.NewAdmitterFair(auto.MemWords, nil)
	d.cluster = mpc.NewCluster(auto)
	d.shards = make([]*shard, auto.Machines)
	for i := range d.shards {
		d.shards[i] = newShard(i, auto.Machines, cfg)
		d.cluster.SetMachine(i, d.shards[i])
	}
	// Initial singleton components: comp(v) = v, size 1, registered (a
	// one-vertex component's holder set is implicit).
	for v := 0; v < cfg.N; v++ {
		sh := d.shards[d.owner(v)]
		sh.verts[int32(v)] = int64(v)
		sh.compVerts[int64(v)] = []int32{int32(v)}
		d.shards[d.registry(int64(v))].sizes[int64(v)] = 1
	}
	return d
}

func (d *D) owner(v int) int         { return v % len(d.shards) }
func (d *D) registry(comp int64) int { return int(comp % int64(len(d.shards))) }

// Cluster exposes the underlying cluster (stats, entropy metric).
func (d *D) Cluster() *mpc.Cluster { return d.cluster }

// Close releases the cluster's worker goroutines (Workers ≥ 2). The
// structure must not be used afterwards.
func (d *D) Close() { d.cluster.Close() }

func (d *D) opWeight(w graph.Weight) graph.Weight {
	if d.cfg.Mode == MST && d.cfg.Eps > 0 {
		return graph.BucketWeight(w, d.cfg.Eps)
	}
	return w
}

// send injects w for v's owner, the payload in the driver's outbox.
func (d *D) send(v int, w wire, words int) {
	d.out.Inject(d.cluster, d.owner(v), w, words)
}

func (d *D) inject(up graph.Update, seq int64) {
	d.send(up.U, wire{
		Kind: kUpdate, U: int32(up.U), V: int32(up.V), W: int64(d.opWeight(up.W)),
		Seq: seq, Flag: up.Op == graph.Delete,
	}, 6)
}

// ApplyOps processes a mixed op stream — updates (edge and vertex-weight
// writes) *and* typed reads (OpConnected, OpComponentOf, OpSubtreeSum,
// OpPathSum, OpTreeTop) — through one scheduled pipeline in a
// single mixed round-accounting window (mpc.MixedStats). Each pending
// op's resources are read driver-side and handed to the shared wave
// scheduler (internal/sched):
//
//   - an update claims its two endpoint component labels exclusively
//     (semantic conflicts: overlapping updates must stay ordered) and its
//     orchestrator machine as a budgeted claim (resource conflict:
//     concurrent orchestrations on one machine are fine until their
//     worst-round words would blow the per-round cap S);
//   - a query claims the component labels it observes as *read* keys:
//     reads of one component commute with each other and with every
//     update touching other components, but keep batch order against
//     updates of the components they observe.
//
// The first precedence color class runs as one component-disjoint
// concurrent wave through the §5 protocol, queries riding the same wave
// as scatter/forward/gather traffic. Because executing a wave merges and
// splits components, the packer's Drive loop re-reads, between waves, the
// items of the pending ops naming a label the wave held and may have moved
// (see claims); later color classes would only be a prediction.
//
// Correctness rests on two facts. Commutativity: the per-shard
// orchestration state is keyed by update sequence number and every
// broadcast shift map is conditioned on component labels, so updates whose
// endpoint components are disjoint touch disjoint records and commute
// exactly — and a query's answer depends only on the labels of its own
// endpoints' components, which no wave peer touches. Order preservation:
// the precedence coloring keeps every conflicting pair — update/update
// and update/query — in batch order. The final forest and labeling
// therefore equal sequential application, and every query is answered
// against exactly the prefix state its stream position implies
// (snapshot-consistent mid-batch reads, pinned by FuzzMixedEquivalence),
// while a wave of w ops costs the rounds of one op instead of w.
//
// The per-op orchestrator cost distinguishes updates that send a shift
// descriptor to up to all µ machines (links, cuts, MST cycle checks) from
// updates that stay O(1)-machine local (non-tree adds and deletes, no-ops,
// and all queries): the latter pack onto a shared orchestrator nearly
// freely, the former claim most of the machine's per-round word budget.
//
// Answers are positional over the stream's queries: the j-th entry of the
// returned Results answers the j-th op with IsQuery() true.
func (d *D) ApplyOps(ops []graph.Op) (graph.Results, mpc.MixedStats) {
	nu, nq := graph.CountOps(ops)
	// The window counts rounds only; the facade's Ingestor bills tenants.
	d.cluster.BeginMixed(nu, nq)
	// Sequence numbers are assigned by *stream position*, not injection
	// order: fresh component ids minted by cuts are derived from the seq
	// (N + 2·seq), so position-based seqs make the labels of a reordered
	// schedule bit-identical to sequential replay. A read is named by its
	// position.
	ids := make([]int64, len(ops))
	for i, op := range ops {
		if !op.IsQuery() {
			d.seq++
			ids[i] = d.seq
		}
	}
	item := func(i int) sched.Item { d.claims(ops[i], &d.scratch); return d.scratch }
	exec := func(wave []int) { d.runOpWave(ops, ids, wave) }
	if d.auditFail != nil {
		item, exec = d.audited(ops, item, exec)
	}
	d.packer.Drive(len(ops), item, exec)
	st := d.cluster.EndMixed()
	return d.cluster.Answers(ops), st
}

// StreamItem reads one op's schedule-time resources from live driver
// state — the per-op claims oracle the streaming Ingestor offers its forming
// set. The returned item owns its slices, so callers may keep it. Claims are
// valid only for the state they were read from (executing ops moves
// component labels), which the Ingestor honors by reading each arrival's
// item against the post-last-flush quiescent state.
func (d *D) StreamItem(op graph.Op) sched.Item {
	var it sched.Item
	d.claims(op, &it)
	return it
}

// claims is StreamItem into it, reusing it's slices: what ApplyOps hands
// the packer's Drive, which copies an item before asking for the next.
//
// Drive re-reads an item only when an executed op dirtied a key it names,
// so every input below must be state those keys guard, and it is: an op
// reads its endpoints' component labels, which are the keys, and the
// tree/non-tree membership of its own edge (broadcasts), which only an
// update holding the edge's component can change. Stable marks the ops
// whose execution moves none of that: reads, vertex-weight writes, and in
// CC mode every update that does not broadcast — a non-tree add or delete,
// a duplicate, a no-op — since CC never asks whether a non-tree edge exists
// to price another op. MST does (a present non-tree edge makes its
// re-insert a cheap duplicate, an absent one a cycle-check broadcast), so
// there only reads and weight writes are Stable.
func (d *D) claims(op graph.Op, it *sched.Item) {
	*it = sched.Item{Excl: it.Excl[:0], Read: it.Read[:0], Shared: it.Shared[:0], Stable: true}
	orch := int64(d.owner(op.U))
	switch op.Kind {
	case graph.OpConnected:
		it.Read = append(it.Read, d.CompOf(op.U), d.CompOf(op.V))
		it.Shared = append(it.Shared, sched.Claim{Key: orch, Cost: 8})
		return
	case graph.OpComponentOf:
		it.Read = append(it.Read, d.CompOf(op.U))
		it.Shared = append(it.Shared, sched.Claim{Key: orch, Cost: 4})
		return
	case graph.OpSubtreeSum:
		// DP queries broadcast one Span/predicate descriptor and gather µ
		// one-word partials; they read both observed components (the
		// subtree degenerates to u's whole component when the root sits
		// elsewhere, so the answer depends on V's label too).
		it.Read = append(it.Read, d.CompOf(op.U), d.CompOf(op.V))
		it.Shared = append(it.Shared, sched.Claim{Key: orch, Cost: 8*len(d.shards) + 16})
		return
	case graph.OpPathSum:
		it.Read = append(it.Read, d.CompOf(op.U), d.CompOf(op.V))
		it.Shared = append(it.Shared, sched.Claim{Key: orch, Cost: 6*len(d.shards) + 16})
		return
	case graph.OpTreeTop:
		it.Read = append(it.Read, d.CompOf(op.U))
		it.Shared = append(it.Shared, sched.Claim{Key: orch, Cost: 5*len(d.shards) + 8})
		return
	case graph.OpMateOf, graph.OpMatched:
		panic(fmt.Sprintf("dyncon: unsupported query kind %v (connectivity answers OpConnected and OpComponentOf)", op.Kind))
	case graph.OpSetWeight:
		// A vertex-weight write: purely local at the owner, but it must
		// stay ordered against structural updates and DP reads of the
		// same component, hence the exclusive component claim.
		it.Excl = append(it.Excl, d.CompOf(op.U))
		it.Shared = append(it.Shared, sched.Claim{Key: orch, Cost: 4})
		return
	}
	up := op.Update()
	cost := 32 // info/size requests and non-tree record traffic, all O(1) words
	broadcasts := d.broadcasts(up)
	if broadcasts {
		// Worst orchestration round of a broadcasting update: a 3-shift
		// descriptor to every machine, plus slack for the same round's
		// O(1) point-to-point traffic. A link or cut goes only to the
		// holders of its components, but the price is the worst case — a
		// full broadcast — and stays independent of the holder sets, which
		// the driver does not read: waves, rounds and latencies are those
		// of a protocol that broadcasts.
		cost = (16+5*3)*len(d.shards) + 32
	}
	it.Excl = append(it.Excl, d.CompOf(up.U), d.CompOf(up.V))
	it.Shared = append(it.Shared, sched.Claim{Key: orch, Cost: cost})
	it.Stable = d.cfg.Mode == CC && !broadcasts
}

// AuditClaims is a test-only switch that turns the contract claims rests on
// — an executed op changes the item of a pending op only through a key the
// pending op names, and not at all if it is Stable — into a checked
// property: before every wave of every ApplyOps, each op still pending is
// read afresh and must equal the item the packer last read for it, or fail
// (a test's Fatalf) is called. It costs a full re-read per wave.
func (d *D) AuditClaims(fail func(format string, args ...any)) { d.auditFail = fail }

// audited wraps Drive's two callbacks with AuditClaims' check.
func (d *D) audited(ops []graph.Op, item func(int) sched.Item, exec func([]int)) (func(int) sched.Item, func([]int)) {
	last := make([]sched.Item, len(ops)) // what the packer last read, by stream position
	done := make([]bool, len(ops))
	return func(i int) sched.Item {
			it := item(i)
			last[i] = it
			last[i].Excl, last[i].Read, last[i].Shared = slices.Clone(it.Excl), slices.Clone(it.Read), slices.Clone(it.Shared)
			return it
		}, func(wave []int) {
			for i, op := range ops {
				if done[i] {
					continue
				}
				now, was := d.StreamItem(op), last[i]
				if now.Solo != was.Solo || now.Stable != was.Stable ||
					!slices.Equal(now.Excl, was.Excl) || !slices.Equal(now.Read, was.Read) || !slices.Equal(now.Shared, was.Shared) {
					d.auditFail("dyncon: pending op %d (%v) reads as %+v, but the packer holds %+v", i, op, now, was)
				}
			}
			for _, i := range wave {
				done[i] = true
			}
			exec(wave)
		}
}

// runOpWave injects the scheduled wave (stream indices: updates and
// queries alike) concurrently and drives the cluster to quiescence inside
// a per-wave attribution window. The test-only wavePerm hook permutes the
// injection order, backing the permutation-commutativity property test.
func (d *D) runOpWave(ops []graph.Op, ids []int64, wave []int) {
	order := wave
	if d.wavePerm != nil {
		order = append([]int(nil), wave...)
		d.wavePerm(order)
	}
	d.cluster.BeginMixedWave(ops, wave)
	for _, i := range order {
		op := ops[i]
		switch op.Kind {
		case graph.OpConnected:
			d.send(op.U, wire{Kind: kQuery, U: int32(op.U), V: int32(op.V), Seq: int64(i)}, 4)
		case graph.OpComponentOf:
			d.send(op.U, wire{Kind: kCompQuery, V: int32(op.U), Seq: int64(i)}, 3)
		case graph.OpSubtreeSum:
			d.send(op.U, wire{Kind: kDPSubtree, U: int32(op.U), V: int32(op.V), Seq: int64(i)}, 5)
		case graph.OpPathSum:
			d.send(op.U, wire{Kind: kDPPath, U: int32(op.U), V: int32(op.V), Seq: int64(i)}, 5)
		case graph.OpTreeTop:
			d.send(op.U, wire{Kind: kDPTop, U: int32(op.U), Seq: int64(i)}, 4)
		case graph.OpSetWeight:
			d.send(op.U, wire{Kind: kSetWeight, U: int32(op.U), W: int64(op.W), Seq: ids[i]}, 4)
		default:
			d.inject(op.Update(), ids[i])
		}
	}
	d.cluster.Drain(64, "dyncon: op wave")
	d.cluster.EndMixedWave()
}

// broadcasts predicts, from driver-side oracle state at schedule time,
// whether the §5 orchestration of up includes a round that may reach every
// machine: links (components differ), cuts (deleting a tree edge), and MST
// cycle checks all do; non-tree adds and deletes, duplicates and
// no-ops touch O(1) machines with O(1) words. The prediction stays valid
// through the wave because wave members are component-disjoint: no wave
// peer can move the edge between tree and non-tree or merge the endpoint
// components.
func (d *D) broadcasts(up graph.Update) bool {
	if up.U == up.V {
		return false
	}
	e := graph.NormEdge(up.U, up.V)
	sh := d.shards[d.owner(up.U)] // owner of U holds every record incident to U
	if up.Op == graph.Delete {
		_, isTree := sh.tree[e]
		return isTree
	}
	if _, dup := sh.tree[e]; dup {
		return false
	}
	if _, dup := sh.nontree[e]; dup {
		return false
	}
	if d.CompOf(up.U) != d.CompOf(up.V) {
		return true // link broadcast
	}
	// Same component: CC stores a non-tree record locally; MST broadcasts
	// the cycle check (and possibly a swap cut plus relink).
	return d.cfg.Mode == MST
}

// CompOf returns v's component label by inspecting the shard directly —
// driver-side oracle access for validation only, not part of the protocol
// accounting. The protocol query is an OpComponentOf op.
func (d *D) CompOf(v int) int64 {
	return d.shards[d.owner(v)].verts[int32(v)]
}

// ForestEdges returns the maintained spanning forest (driver-side oracle
// access for validation).
func (d *D) ForestEdges() []graph.WEdge {
	var out []graph.WEdge
	for _, sh := range d.shards {
		for k, rec := range sh.tree {
			if int(k.U)%len(d.shards) == sh.id { // report once, at U's owner
				out = append(out, graph.WEdge{U: int(k.U), V: int(k.V), W: graph.Weight(rec.w)})
			}
		}
	}
	return out
}

// ForestWeight sums the maintained forest's operative weights.
func (d *D) ForestWeight() graph.Weight {
	var total graph.Weight
	for _, e := range d.ForestEdges() {
		total += e.W
	}
	return total
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// WeightOf returns v's tree-DP weight by inspecting the shard directly —
// driver-side oracle access for validation (0 when never set).
func (d *D) WeightOf(v int) int64 {
	if rec, ok := d.shards[d.owner(v)].weights[int32(v)]; ok {
		return rec.W
	}
	return 0
}
