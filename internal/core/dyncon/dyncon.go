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

	"dmpc/internal/etour"
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
	packer  *sched.Admitter // forms every wave, first-fit
	scratch sched.Item      // the item ApplyOps reads claims into, slices reused
	seq     int64           // update sequence number, for fresh component ids

	// wavePerm, when set by a test, permutes the injection order of every
	// scheduled wave in place — the hook behind the permutation-
	// commutativity property test. Production code leaves it nil.
	wavePerm func(wave []int)
	// auditFail, when set by a test (AuditClaims), makes ApplyOps check the
	// packer's view of every pending op before every wave.
	auditFail func(format string, args ...any)
}

// New builds the structure with an empty graph. Use Preprocess to load an
// initial graph with the static-preprocessing accounting of §5.
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

func (d *D) inject(up graph.Update, seq int64) {
	d.cluster.Send(mpc.Message{
		From: -1, To: d.owner(up.U),
		Payload: &wire{
			Kind: kUpdate, U: int32(up.U), V: int32(up.V), W: int64(d.opWeight(up.W)),
			Seq: seq, Flag: up.Op == graph.Delete,
		},
		Words: 6,
	})
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
			d.cluster.Send(mpc.Message{
				From: -1, To: d.owner(op.U),
				Payload: &wire{Kind: kQuery, U: int32(op.U), V: int32(op.V), Seq: int64(i)},
				Words:   4,
			})
		case graph.OpComponentOf:
			d.cluster.Send(mpc.Message{
				From: -1, To: d.owner(op.U),
				Payload: &wire{Kind: kCompQuery, V: int32(op.U), Seq: int64(i)},
				Words:   3,
			})
		case graph.OpSubtreeSum, graph.OpPathSum, graph.OpTreeTop:
			msg := &wire{Kind: kDPSubtree, U: int32(op.U), V: int32(op.V), Seq: int64(i)}
			words := 5
			switch op.Kind {
			case graph.OpPathSum:
				msg.Kind = kDPPath
			case graph.OpTreeTop:
				msg.Kind, msg.V, words = kDPTop, 0, 4
			}
			d.cluster.Send(mpc.Message{From: -1, To: d.owner(op.U), Payload: msg, Words: words})
		case graph.OpSetWeight:
			d.cluster.Send(mpc.Message{
				From: -1, To: d.owner(op.U),
				Payload: &wire{Kind: kSetWeight, U: int32(op.U), W: int64(op.W), Seq: ids[i]},
				Words:   4,
			})
		case graph.OpMateOf, graph.OpMatched:
			panic(fmt.Sprintf("dyncon: unsupported query kind %v (connectivity answers OpConnected and OpComponentOf)", op.Kind))
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

// NonTreeEdges returns the stored non-tree records (driver-side oracle).
func (d *D) NonTreeEdges() []graph.WEdge {
	var out []graph.WEdge
	for _, sh := range d.shards {
		for k, rec := range sh.nontree {
			if int(k.U)%len(d.shards) == sh.id {
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

// Validate cross-checks the distributed state: owner copies of each record
// must agree, every component's positions must reassemble into a valid
// Euler tour, each live component's size and holder set must be filed at its
// registry alone and match its vertices (and no dead label keep one), every
// non-tree anchor must be a genuine appearance of its endpoint with
// consistent component labels, and no orchestration entry may be left
// behind at quiescence.
// Driver-side; used by tests after every update.
func (d *D) Validate() error {
	type agg struct {
		rec  treeRec
		seen int
	}
	all := map[graph.Edge]*agg{}
	for _, sh := range d.shards {
		for k, rec := range sh.tree {
			if a, ok := all[k]; ok {
				a.seen++
				if a.rec.pos != rec.pos || a.rec.comp != rec.comp || a.rec.w != rec.w {
					return fmt.Errorf("edge %v: owner copies disagree", k)
				}
			} else {
				all[k] = &agg{rec: *rec, seen: 1}
			}
		}
	}
	for ge, a := range all {
		want := 2
		if d.owner(ge.U) == d.owner(ge.V) {
			want = 1
		}
		if a.seen != want {
			return fmt.Errorf("edge %v: %d copies, want %d", ge, a.seen, want)
		}
	}

	// The compVerts inverse index must mirror verts exactly on every
	// shard: each owned vertex listed once under its current label, no
	// stale or duplicate entries. The link and cut relabel loops walk this
	// index instead of scanning verts, so drift here would silently skip
	// (or double-apply) component relabels.
	for _, sh := range d.shards {
		listed := 0
		seen := make(map[int32]bool, len(sh.verts))
		for comp, vs := range sh.compVerts {
			for _, v := range vs {
				if seen[v] {
					return fmt.Errorf("machine %d: vertex %d listed twice in compVerts", sh.id, v)
				}
				seen[v] = true
				if got, ok := sh.verts[v]; !ok || got != comp {
					return fmt.Errorf("machine %d: compVerts files vertex %d under %d, verts says %d", sh.id, v, comp, got)
				}
			}
			listed += len(vs)
		}
		if listed != len(sh.verts) {
			return fmt.Errorf("machine %d: compVerts indexes %d vertices, verts holds %d", sh.id, listed, len(sh.verts))
		}
		if err := sh.auditAdj(); err != nil {
			return fmt.Errorf("machine %d: %w", sh.id, err)
		}
	}

	// Registry sizes and holder sets vs vertex labels: one size per live
	// component, and one holder set per live component of two or more
	// vertices, at its registry and nowhere else. Links and cuts are sent to
	// the holder set, so a missing holder would skip a rewrite: a stored list
	// must be exactly the machines owning a vertex of the component, fewer
	// than µ/2; all is a superset and always allowed. Each registry bills the
	// ids it stores.
	counts := map[int64]int{}
	for v := 0; v < d.cfg.N; v++ {
		counts[d.CompOf(v)]++
	}
	for _, sh := range d.shards {
		for c := range sh.sizes {
			if counts[c] == 0 {
				return fmt.Errorf("machine %d: registry keeps a size for component %d, which no vertex carries", sh.id, c)
			}
			if r := d.registry(c); r != sh.id {
				return fmt.Errorf("machine %d: registry size for component %d filed here, its registry is machine %d", sh.id, c, r)
			}
		}
		words := 0
		for c, h := range sh.holders {
			if r := d.registry(c); r != sh.id {
				return fmt.Errorf("machine %d: holder set for component %d filed here, its registry is machine %d", sh.id, c, r)
			}
			if counts[c] < 2 {
				return fmt.Errorf("machine %d: registry keeps a holder set for component %d of %d vertices", sh.id, c, counts[c])
			}
			words += len(h.ids)
		}
		if words != sh.holderWords {
			return fmt.Errorf("machine %d: MemWords bills %d holder ids, its holder lists store %d", sh.id, sh.holderWords, words)
		}
	}
	for c, k := range counts {
		reg := d.shards[d.registry(c)]
		if got := reg.sizes[c]; got != k {
			return fmt.Errorf("component %d: registry size %d, actual %d", c, got, k)
		}
		if h := reg.holders[c]; k > 1 && !h.all {
			var want []int32
			for _, sh := range d.shards {
				if len(sh.compVerts[c]) > 0 {
					want = append(want, int32(sh.id))
				}
			}
			if !slices.Equal(h.ids, want) || 2*len(want) >= len(d.shards) {
				return fmt.Errorf("component %d: registry holder list %v, holders %v of %d machines", c, h.ids, want, len(d.shards))
			}
		}
	}

	// Reassemble tours per component.
	tours := map[int64][]int{}
	for c, k := range counts {
		tours[c] = make([]int, 4*(k-1))
	}
	place := func(c int64, pos, vert int) error {
		t := tours[c]
		if pos < 1 || pos > len(t) {
			return fmt.Errorf("component %d: position %d outside tour of length %d", c, pos, len(t))
		}
		if t[pos-1] != 0 && t[pos-1] != vert+1 {
			return fmt.Errorf("component %d: position %d claimed by %d and %d", c, pos, t[pos-1]-1, vert)
		}
		t[pos-1] = vert + 1 // store +1 so 0 means empty
		return nil
	}
	for ge, a := range all {
		c := a.rec.comp
		if d.CompOf(ge.U) != c || d.CompOf(ge.V) != c {
			return fmt.Errorf("edge %v: component label %d disagrees with endpoints", ge, c)
		}
		p := a.rec.pos
		for _, pv := range [4][2]int{{p.UV[0], p.U}, {p.UV[1], p.V}, {p.VU[0], p.V}, {p.VU[1], p.U}} {
			if err := place(c, pv[0], pv[1]); err != nil {
				return err
			}
		}
	}
	appear := map[int64]map[int]map[int]bool{} // comp -> vertex -> positions
	for c, t := range tours {
		seq := make([]int, len(t))
		appear[c] = map[int]map[int]bool{}
		for i, x := range t {
			if x == 0 {
				return fmt.Errorf("component %d: position %d unassigned", c, i+1)
			}
			seq[i] = x - 1
			if appear[c][x-1] == nil {
				appear[c][x-1] = map[int]bool{}
			}
			appear[c][x-1][i+1] = true
		}
		if err := etour.SeqFromSlice(seq).Valid(); err != nil {
			return fmt.Errorf("component %d: %w", c, err)
		}
	}

	// Non-tree anchors.
	seenNT := map[graph.Edge]bool{}
	for _, sh := range d.shards {
		for ge, rec := range sh.nontree {
			if seenNT[ge] {
				continue
			}
			seenNT[ge] = true
			cu, cv := d.CompOf(ge.U), d.CompOf(ge.V)
			if cu != cv {
				return fmt.Errorf("non-tree edge %v spans components %d and %d", ge, cu, cv)
			}
			if rec.cU != cu || rec.cV != cv {
				return fmt.Errorf("non-tree edge %v: anchor comps (%d,%d) want %d", ge, rec.cU, rec.cV, cu)
			}
			for _, av := range [2][2]int{{rec.aU, ge.U}, {rec.aV, ge.V}} {
				anchor, vert := av[0], av[1]
				if anchor == 0 {
					return fmt.Errorf("non-tree edge %v: lingering singleton anchor for %d", ge, vert)
				}
				if !appear[cu][vert][anchor] {
					return fmt.Errorf("non-tree edge %v: anchor %d is not an appearance of %d", ge, anchor, vert)
				}
			}
		}
	}

	// Weight partials (tree DP): each record lives at its vertex's owner
	// only, mirrors the vertex's live component label, and anchors a
	// genuine surviving tour appearance — 0 exactly for singletons. Like
	// the compVerts rule, this is mirrored-by-construction state, so
	// every perm/fuzz suite calling Validate exercises the Shift repair
	// rule for free.
	for _, sh := range d.shards {
		for v, rec := range sh.weights {
			if d.owner(int(v)) != sh.id {
				return fmt.Errorf("weight record for %d held by machine %d, owner is %d", v, sh.id, d.owner(int(v)))
			}
			c := d.CompOf(int(v))
			if rec.Comp != c {
				return fmt.Errorf("weight record for %d: component %d, verts says %d", v, rec.Comp, c)
			}
			if counts[c] == 1 {
				if rec.Anchor != 0 {
					return fmt.Errorf("weight record for singleton %d: anchor %d, want 0", v, rec.Anchor)
				}
				continue
			}
			if rec.Anchor == 0 {
				return fmt.Errorf("weight record for %d: lingering singleton anchor", v)
			}
			if !appear[c][int(v)][rec.Anchor] {
				return fmt.Errorf("weight record for %d: anchor %d is not an appearance", v, rec.Anchor)
			}
		}
	}

	// The orchestration tables: an update or DP query that finished deleted
	// its entry, so a leftover is an op some window started and never
	// completed.
	for _, sh := range d.shards {
		if n := len(sh.pend) + len(sh.qpend); n != 0 {
			return fmt.Errorf("machine %d: %d unfinished orchestrations (pend %d, qpend %d) at quiescence", sh.id, n, len(sh.pend), len(sh.qpend))
		}
	}
	return nil
}

// auditAdj checks the adjacency and the rings against the by-edge maps,
// which they must mirror exactly: every tree record listed once under each
// endpoint the shard owns, marked unfiled at the other, every record once on
// the ring of its home vertex's label, and nothing else listed — no foreign
// vertex, no drained entry, no stale record. Handlers reach records only
// through them, so drift would silently skip (or double-apply) a Shift.
func (s *shard) auditAdj() error {
	listed := map[*treeRec][2]int{} // record -> times listed under U, under V
	for v, r := range s.adj {
		if s.owner(v) != s.id {
			return fmt.Errorf("adjacency files records under vertex %d, which machine %d owns", v, s.owner(v))
		}
		if r == nil {
			return fmt.Errorf("adjacency keeps a drained entry for vertex %d", v)
		}
		for n := 0; r != nil; r = *r.linkAt(v) {
			if n++; n > len(s.tree) {
				return fmt.Errorf("adjacency: the tree list of vertex %d does not end", v)
			}
			if s.tree[graph.Edge{U: r.pos.U, V: r.pos.V}] != r || (int(v) != r.pos.U && int(v) != r.pos.V) {
				return fmt.Errorf("adjacency lists a stale or foreign tree record %d-%d under vertex %d", r.pos.U, r.pos.V, v)
			}
			c := listed[r]
			c[b2i(int(v) != r.pos.U)]++
			listed[r] = c
		}
	}
	for e, r := range s.tree {
		for i, x := range [2]int{e.U, e.V} {
			owned, unfiled := s.owner(int32(x)) == s.id, r.next[i] == r
			if listed[r][i] != b2i(owned) || unfiled == owned {
				return fmt.Errorf("adjacency lists tree record %v %d times under vertex %d (owned here: %v, marked unfiled: %v)",
					e, listed[r][i], x, owned, unfiled)
			}
		}
	}
	err := auditRings(s, "tree", s.treeRing, s.tree, func(r *treeRec) graph.Edge { return graph.Edge{U: r.pos.U, V: r.pos.V} })
	if err != nil {
		return err
	}
	return auditRings(s, "non-tree", s.ntRing, s.nontree, func(r *ntRec) graph.Edge { return graph.Edge{U: int(r.u), V: int(r.v)} })
}

// auditRings checks one kind of ring: every stored record on exactly one,
// the ring of its home vertex's label — U's, unless U is owned elsewhere —
// every ring closed, and no head kept for a label without records.
func auditRings[T any, P ringed[T]](s *shard, kind string, rings map[int64]*T, stored map[graph.Edge]*T, edge func(P) graph.Edge) error {
	on := map[*T]int{}
	for label, head := range rings {
		if head == nil {
			return fmt.Errorf("%s rings keep a head for label %d, which files no record", kind, label)
		}
		for r, n := head, 0; ; n++ {
			l, e := P(r).at(), edge(r)
			if n == len(stored) || l.next == nil || P(l.next).at().prev != r {
				return fmt.Errorf("the %s ring of label %d does not close", kind, label)
			}
			home := int32(e.U)
			if s.owner(home) != s.id {
				home = int32(e.V)
			}
			if stored[e] != r || s.verts[home] != label {
				return fmt.Errorf("the ring of label %d lists a stale or foreign %s record %v (home vertex %d)", label, kind, e, home)
			}
			if on[r]++; l.next == head {
				break
			}
			r = l.next
		}
	}
	for e, r := range stored {
		if on[r] != 1 {
			return fmt.Errorf("%s record %v is on %d rings", kind, e, on[r])
		}
	}
	return nil
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
