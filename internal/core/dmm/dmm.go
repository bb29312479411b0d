// Package dmm implements §3 of the paper: a deterministic fully-dynamic
// maximal matching in the DMPC model with O(1) rounds per update, O(1)
// active machines per round and O(√N) communication per round, in the
// worst case.
//
// # Roles
//
// Machine 0 is the coordinator MC. It stores the update-history H — a ring
// of the last O(√N) updates to the graph AND to the maintained matching
// (including light/heavy transitions) — plus the storage directory
// (per-machine free space, light-machine assignment, alive/suspended
// machines of heavy vertices) and a per-machine synchronization cursor
// into H.
//
// Machines 1..k are statistics machines (k = O(n/√N)); the statistics of
// vertex v (degree, mate, light/heavy, storage locations) live on machine
// 1 + v/statsPerMachine and are authoritative: every update flows through
// them via MC.
//
// The remaining machines store adjacency: a light vertex keeps its whole
// list on one (shared) light machine; a heavy vertex keeps an alive window
// of up to ⌈√(2·cap)⌉ edges on an exclusive machine and the rest on a
// stack of suspended machines. Each stored edge carries a mirror of the
// other endpoint's matching status; mirrors may be up to O(√N) updates
// stale, and every message from MC to a storage machine carries the H
// suffix since that machine's last contact, letting it reconstruct current
// state locally — the paper's need-to-know buffer. One additional machine
// is refreshed round-robin per update, so every machine is contacted at
// least every O(√N) updates and the ring never overflows.
//
// # Deviations
//
// Physical deletion of suspended edges is lazy (applied at the next
// contact), as in the paper's updateMachine; the light-machine merge rule
// is occupancy-threshold-based rather than pairwise-exhaustive, preserving
// the Lemma 3.2 machine bound within constants. If the alive window of a
// heavy vertex offers neither a free neighbor nor a surrogate with a light
// mate (impossible at paper scale by the degree-counting argument, but
// possible on tiny graphs), the suspended stack is scanned as a counted
// fallback.
package dmm

import (
	"fmt"
	"math"

	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/sched"
)

// Config sizes a dynamic maximal matching instance.
type Config struct {
	N        int // vertices
	CapEdges int // maximum simultaneous edges (the paper's m)
	// ThreeHalves enables the §4 extension: free-neighbor counters on the
	// statistics machines and elimination of all length-3 augmenting
	// paths, upgrading the guarantee from maximal (2-approximate) to
	// 3/2-approximate at the price of O(n/√N) active machines per round.
	// Per §4 the graph must start empty (it does).
	ThreeHalves bool
	// Workers is the cluster's mpc.Config.Workers: at most 1 runs every
	// handler inline on the driver, w ≥ 2 shards the machines over worker
	// goroutines and requires Close.
	Workers int
	// Deprecated: ignored; Workers alone decides how handlers run.
	Backend mpc.BackendKind
}

// M is the §3 dynamic maximal matching structure.
type M struct {
	cfg     Config
	cluster *mpc.Cluster
	coord   *coordinator
	stats   []*statsMachine
	storage []storeMachine  // one slab; a zero storeMachine is an empty one
	packer  *sched.Admitter // forms every wave, first-fit, and probes head-run widths
	items   []sched.Item    // ApplyOps' re-read slots, slices reused
	ids     []int64         // ApplyOps' sequence numbers by stream index
	pending []int           // ApplyOps' unscheduled stream indices
	seq     int64
	// The driver's injections live in these (see coord.go's Payloads).
	updates mpc.Outbox[update]
	queries mpc.Outbox[mateQuery]

	// wavePerm, when set by a test, permutes the injection order of every
	// scheduled wave in place — the hook behind the permutation-
	// commutativity property test. Production code leaves it nil.
	wavePerm func(wave []int)
}

// New builds an empty instance.
func New(cfg Config) *M {
	if cfg.N <= 0 {
		panic("dmm: need at least one vertex")
	}
	if cfg.CapEdges < 16 {
		cfg.CapEdges = 16
	}
	root := int(math.Ceil(math.Sqrt(float64(cfg.CapEdges))))
	aliveCap := int(math.Ceil(math.Sqrt(2 * float64(cfg.CapEdges))))
	heavyAt := 2 * root

	// Size memory, machine count and history capacity together: all three
	// are Θ(√N) in the paper, and the worst-case history suffix (≈ the
	// whole ring, 4 words per entry) must fit within a machine's per-round
	// I/O budget a few times over. A short fixpoint iteration settles the
	// constants.
	mem := max(edgeWords*heavyAt*2+64, 64*root)
	var statsPer, numStats, poolSize, mu int
	for i := 0; i < 4; i++ {
		statsPer = max(1, mem/8)
		numStats = (cfg.N+statsPer-1)/statsPer + 1
		poolSize = 4*(edgeWords*2*cfg.CapEdges/mem+1) + 3*root + 8
		mu = 1 + numStats + poolSize
		need := 16 * (12*mu + 128)
		if mem >= need {
			break
		}
		mem = need
	}

	cl := mpc.NewCluster(mpc.Config{Machines: mu, MemWords: mem, Workers: cfg.Workers})
	m := &M{cfg: cfg, packer: sched.NewAdmitterFair(mem, nil)}
	m.cluster = cl
	m.coord = newCoordinator(cfg, mu, numStats, statsPer, mem, heavyAt, aliveCap)
	cl.SetMachine(0, m.coord)
	m.stats = make([]*statsMachine, numStats)
	for i := 0; i < numStats; i++ {
		m.stats[i] = newStatsMachine(1 + i)
		cl.SetMachine(1+i, m.stats[i])
	}
	m.storage = make([]storeMachine, poolSize)
	for i := range m.storage {
		m.storage[i].id = 1 + numStats + i
		cl.SetMachine(1+numStats+i, &m.storage[i])
	}
	return m
}

// Cluster exposes the underlying cluster for accounting.
func (m *M) Cluster() *mpc.Cluster { return m.cluster }

// Close releases the cluster's worker goroutines (Workers ≥ 2). The
// structure must not be used afterwards.
func (m *M) Close() { m.cluster.Close() }

// ApplyOps processes a mixed op stream — updates *and* typed reads
// (OpMateOf, OpMatched) — through one scheduled pipeline in a single
// mixed round-accounting window (mpc.MixedStats), using the shared wave
// scheduler (internal/sched). Updates whose §3 case analysis provably
// touches only their endpoints and those endpoints' current mates run
// phase-parallel as one concurrent wave — MC opens a per-seq resumable
// flow for each and interleaves their stats/storage round trips — while
// updates whose touch set cannot be bounded at schedule time (deletions
// of matched edges and insertions at a free heavy endpoint, whose
// rematch/surrogate chains scan arbitrary neighbors) run solo in stream
// position. A read claims the vertex it observes as a *read* key: every
// matching change involving vertex v carries v in its exclusive touch set
// (endpoints plus current mates; cascades are Solo), so the precedence
// coloring sequences the read after every conflicting earlier update and
// before every conflicting later one, and the authoritative statistics
// machine answers it in the wave's delivery round against exactly the
// prefix state its stream position implies. Reads of untouched vertices
// ride any wave for free.
//
// Items are recomputed from live statistics between waves, and sequence
// numbers are assigned by stream position, so the final mate table AND
// every in-wave answer are bit-identical to applying the ops one at a
// time (pinned by FuzzBatchEquivalence, FuzzMixedEquivalence and
// TestWavePermutationCommutativity).
//
// A wave of w ops costs the rounds of one update instead of w. Update
// stretches with no parallelism to extract (a wave of width 1) take the
// serial-segment path instead: the driver detects the maximal serial
// head-run of updates and executes it chained through the coordinator
// queue (runChained) — serialize mode is sequential replay by
// construction, so the segment needs no schedule-time reads at all and
// shares its injection round and ack tail — and only genuine waves pay
// wave bookkeeping. Reads never chain: a read reaching the head of the
// remaining stream runs as a query-only wave costing one round, charged
// to the window's query half.
//
// Answers are positional over the stream's queries: the j-th entry of the
// returned Results answers the j-th op with IsQuery() true.
func (m *M) ApplyOps(ops []graph.Op) (graph.Results, mpc.MixedStats) {
	nu, nq := graph.CountOps(ops)
	// The window counts rounds only; the facade's Ingestor bills tenants.
	m.cluster.BeginMixed(nu, nq)
	// Updates draw sequence numbers by stream position — exactly the ids
	// sequential replay would hand out. A read is named by its position.
	// Both buffers are M's, reused from window to window.
	ids, pending := m.ids[:0], m.pending[:0]
	for i, op := range ops {
		id := int64(0)
		if !op.IsQuery() {
			m.seq++
			id = m.seq
		}
		ids = append(ids, id)
		pending = append(pending, i)
	}
	m.ids, m.pending = ids, pending
	if cap(m.items) < len(ops) {
		m.items = append(m.items[:cap(m.items)], make([]sched.Item, len(ops)-cap(m.items))...)
	}
	items := m.items[:len(ops)] // slots keep their slices' capacity from window to window
	for len(pending) > 0 {
		// The mean refresh-suffix cost only moves when rounds execute, so
		// it is read once per scheduling pass, not once per item.
		meanSuffix := m.coord.meanStoreSuffix()
		for j, b := range pending {
			m.itemFor(ops[b], meanSuffix, &items[j])
		}
		wave, rest := m.packer.Wave(pending, items[:len(pending)])
		if len(wave) > 1 || ops[wave[0]].IsQuery() {
			m.runOpWave(ops, ids, wave)
			pending = append(pending[:0], rest...)
			continue
		}
		// Serial head-run: the front of the remaining stream packs no wave.
		// Chain forward while the (schedule-time) item view keeps yielding
		// width-1 waves over consecutive *updates* — a segmentation
		// heuristic only; chained execution is sequential replay whatever
		// the items say. The probe reuses the packer, whose wave and rest
		// it overwrites: neither is read past this point.
		run := 1
		for run < len(pending) && !ops[pending[run]].IsQuery() {
			if w, _ := m.packer.Wave(pending[run:], items[run:len(pending)]); len(w) != 1 {
				break
			}
			run++
		}
		m.runChained(ops, ids, pending[:run])
		pending = pending[run:]
	}
	// Absorb the last run's leftover bookkeeping acks inside the window so
	// the structure is quiescent for whatever comes next.
	m.cluster.Drain(16, "dmm: op ack tail")
	st := m.cluster.EndMixed()
	res := m.cluster.Answers(ops)
	graph.FoldMatched(ops, res)
	return res, st
}

// runOpWave injects the scheduled wave (stream indices: updates at MC,
// reads at their statistics machines) in one round — every update opens
// its own flow on arrival, every read is answered in the
// delivery round — and drives the flows to completion inside a per-wave
// attribution window. A query-only wave needs exactly one round (the
// scatter), charged to the query half. The test-only wavePerm
// hook permutes the injection order, backing the permutation-
// commutativity property test.
func (m *M) runOpWave(ops []graph.Op, ids []int64, wave []int) {
	order := wave
	if m.wavePerm != nil {
		order = append([]int(nil), wave...)
		m.wavePerm(order)
	}
	w := m.cluster.BeginMixedWave(ops, wave)
	for _, i := range order {
		op := ops[i]
		if op.IsQuery() {
			m.cluster.Send(mpc.Message{
				From: -1, To: 1 + op.U/m.coord.statsPer,
				Payload: m.queries.Put(m.cluster.Stats().Rounds, mateQuery{Seq: int64(i), V: int32(op.U)}),
				Words:   3,
			})
			continue
		}
		m.inject(op.Update(), ids[i])
	}
	if w.Updates == 0 {
		m.cluster.Round() // reads answer in the delivery round; no flows to drive
	} else {
		m.driveFlows(w.Updates, "dmm: op wave")
	}
	m.cluster.EndMixedWave()
}

// runChained executes a serial update segment (stream indices) through
// the coordinator queue: all updates are injected in one round, MC runs
// them strictly in order and chains each update's first requests into the
// round the previous one finishes. Chained rounds belong to the window's
// update half only: a wave records genuine concurrency, and a serial
// segment has none.
func (m *M) runChained(ops []graph.Op, ids []int64, seg []int) {
	m.coord.serialize = true
	defer func() { m.coord.serialize = false }()
	for _, i := range seg {
		m.inject(ops[i].Update(), ids[i])
	}
	m.driveFlows(len(seg), "dmm: chained run")
}

func (m *M) inject(up graph.Update, seq int64) {
	m.cluster.Send(mpc.Message{
		From: -1, To: 0,
		Payload: m.updates.Put(m.cluster.Stats().Rounds, update{Seq: seq, A: int32(up.U), B: int32(up.V), Del: up.Op == graph.Delete}),
		Words:   4,
	})
}

// driveFlows runs rounds from the injection round until MC has closed
// every flow (and drained its serialize queue), then one more round so the
// final flows' authoritative statistics and storage writes land — the
// point where driver-side schedule reads are current again. The round-
// robin refresh and store acks of the tail are deliberately left in
// flight: they carry no semantic state (they only true up MC's free-space
// directory), so their rounds overlap the next wave instead of extending
// this one. The round budget is linear in the nu updates injected; what
// names the caller if it is ever exhausted.
func (m *M) driveFlows(nu int, what string) {
	limit, rounds := 80*nu+16, 0
	for {
		m.cluster.Round()
		rounds++
		if len(m.coord.inflight) == 0 && m.coord.queued() == 0 {
			m.cluster.Round()
			return
		}
		if rounds >= limit {
			panic(fmt.Sprintf("%s of %d updates did not complete within %d rounds (%d flows open, %d queued)",
				what, nu, limit, len(m.coord.inflight), m.coord.queued()))
		}
	}
}

// itemFor reads one op's schedule-time resources from the authoritative
// statistics (driver-side, between waves, at quiescence — so the reads
// are current).
//
// Reads: a query names the vertex it observes as a read key. Matching
// state is symmetric — any update changing mate(u) carries u among its
// exclusive keys (endpoint or current mate) or is Solo — so ordering the
// read against exclusive claimants of u is exactly the §3 snapshot it
// must observe. OpMatched(u,v) is mate(u) == v, a single read of u. The
// statistics machine of u takes a small budgeted claim so a wave cannot
// funnel unbounded reads through one machine.
//
// Update classification: an insert matching two free endpoints, an insert that
// changes no matching (some endpoint matched, no free heavy endpoint) and
// a delete of an unmatched edge touch exactly {u, v} plus, for mirror
// heaviness reads, their current mates — those vertex ids are the
// exclusive keys, and such updates commute whenever the key sets are
// disjoint (per-vertex storage lists, H entries and statistics writes all
// key by those vertices). A delete of a matched edge or an insert with a
// free heavy endpoint cascades through rematch/surrogate scans whose
// reach is data-dependent, so it runs Solo; §4 mode is always Solo (its
// counter flush and augmenting sweep read global state).
//
// Budgeted claims: MC's per-round word cap pays every flow's stats and
// storage messages plus the need-to-know H suffixes — estimated from the
// live cursor staleness of the machines this update contacts plus the
// mean storage suffix its end-of-update round-robin refresh will ship.
// Statistics and home storage machines get small claims so a wave cannot
// funnel unbounded traffic through one machine. An update predicted to
// cross the heavy threshold additionally takes the exclusive transition
// key: transitions hold fresh exclusive machines transiently, so at most
// one per wave keeps the storage pool within its sequential envelope.
//
// itemFor writes the item into it, reusing its slices: ApplyOps' re-read
// loop fills its own slots wave after wave and allocates nothing.
func (m *M) itemFor(op graph.Op, meanSuffix int, it *sched.Item) {
	*it = sched.Item{Excl: it.Excl[:0], Read: it.Read[:0], Shared: it.Shared[:0]}
	c := m.coord
	const transitionKey = int64(-1) // vertex ids are >= 0
	if op.IsQuery() {
		switch op.Kind {
		case graph.OpMateOf, graph.OpMatched:
			it.Read = append(it.Read, int64(op.U))
			it.Shared = append(it.Shared, sched.Claim{Key: int64(c.statsOf(int32(op.U))), Cost: 4})
			return
		}
		panic(fmt.Sprintf("dmm: unsupported query kind %v (matching answers OpMateOf and OpMatched)", op.Kind))
	}
	up := op.Update()
	u, v := int32(up.U), int32(up.V)
	if u == v {
		it.Excl = append(it.Excl, int64(u)) // no-op at MC
		return
	}
	if c.threeHalves {
		it.Solo = true
		return
	}
	su, sv := m.statPeek(u), m.statPeek(v)
	if up.Op == graph.Delete {
		if su.mate == v {
			it.Solo = true // unmatch + rematch both ends
			return
		}
	} else {
		uFree, vFree := su.mate < 0, sv.mate < 0
		uHeavy := su.heavy || int(su.deg)+1 >= c.heavyAt // transitionUp runs before the case analysis
		vHeavy := sv.heavy || int(sv.deg)+1 >= c.heavyAt
		if !(uFree && vFree) && ((uFree && uHeavy) || (vFree && vHeavy)) {
			it.Solo = true // surrogate chain
			return
		}
	}
	it.Excl = append(it.Excl, int64(u), int64(v))
	if su.mate >= 0 {
		it.Excl = append(it.Excl, int64(su.mate))
	}
	if sv.mate >= 0 && sv.mate != su.mate {
		it.Excl = append(it.Excl, int64(sv.mate))
	}
	mcCost := 128 + 4*meanSuffix
	for _, s := range [2]stat{su, sv} {
		if s.home < 0 {
			continue
		}
		cost := 2 * edgeWords
		mcCost += 4 * c.suffixLen(s.home)
		if transitionPredicted(s, up.Op == graph.Delete, c.heavyAt) {
			cost += edgeWords * int(s.deg) // cMoveOut ships the whole list
			it.Excl = append(it.Excl, transitionKey)
		}
		it.Shared = append(it.Shared, sched.Claim{Key: int64(s.home), Cost: cost})
	}
	it.Shared = append(it.Shared,
		sched.Claim{Key: 0, Cost: mcCost},
		sched.Claim{Key: int64(c.statsOf(u)), Cost: 32},
		sched.Claim{Key: int64(c.statsOf(v)), Cost: 32},
	)
}

// StreamItem is itemFor at the current mean refresh-suffix cost — the
// per-op claims oracle the streaming Ingestor offers its forming set. The
// returned item owns its slices, so callers may keep it. Valid only at
// driver-side quiescence (between flushes), which is when the Ingestor
// calls it; ApplyOps reads the suffix cost once per scheduling pass instead.
func (m *M) StreamItem(op graph.Op) sched.Item {
	var it sched.Item
	m.itemFor(op, m.coord.meanStoreSuffix(), &it)
	return it
}

// transitionPredicted reports whether the update will cross v's heavy
// threshold (transitionUp on insert, transitionDown on delete).
func transitionPredicted(s stat, del bool, heavyAt int) bool {
	if del {
		return s.heavy && int(s.deg)-1 < heavyAt
	}
	return !s.heavy && int(s.deg)+1 >= heavyAt
}

// statPeek reads v's authoritative stat driver-side without mutating the
// statistics machine (oracle access; the protocol path is cStatsReq).
func (m *M) statPeek(v int32) stat {
	return m.stats[int(v)/m.coord.statsPer].peek(v)
}

// MateTable reads the authoritative mate table from the statistics
// machines — driver-side oracle access for validation only, not part of
// the protocol accounting. The protocol queries are OpMateOf/OpMatched ops.
func (m *M) MateTable() []int {
	out := make([]int, m.cfg.N)
	for v := 0; v < m.cfg.N; v++ {
		out[v] = int(m.statPeek(int32(v)).mate)
	}
	return out
}

// Fallbacks reports how often the suspended stack had to be scanned
// because the alive window offered no surrogate (see package comment).
func (m *M) Fallbacks() int64 { return m.coord.fallbacks }

// Validate checks the distributed storage invariants: every graph edge is
// stored under both endpoints exactly once (modulo lazy deletions still in
// H), light vertices live on a single machine, alive windows respect their
// capacity, directory free-space figures match machine contents, and
// nothing is left behind at quiescence: no coordinator flow still in
// flight, no update still queued, and no pooled flow holding a parked
// step, a return step, a reply, an operand or helper scratch that the
// next update could inherit. It also audits every running summary
// against a recomputation from scratch — the machines' MemWords counters,
// the storage owner index, MC's cursor sum — and reads without writing:
// validating changes no machine's state.
func (m *M) Validate(g *graph.Graph) error {
	for _, sm := range m.stats {
		if got, want := sm.MemWords(), sm.scanWords(); got != want {
			return fmt.Errorf("machine %d: stats word counter %d, %d recomputed", sm.id, got, want)
		}
	}
	for i := range m.storage {
		if err := m.storage[i].audit(); err != nil {
			return err
		}
	}
	if fl, q := len(m.coord.inflight), m.coord.queued(); fl+q != 0 {
		return fmt.Errorf("coordinator: %d flows in flight and %d updates queued at quiescence", fl, q)
	}
	for i, fl := range m.coord.free {
		if err := fl.idle(); err != nil {
			return fmt.Errorf("coordinator: pooled flow %d keeps %v", i, err)
		}
	}
	var sum int64
	for _, ls := range m.coord.lastSync {
		sum += ls
	}
	if sum != m.coord.syncSum {
		return fmt.Errorf("coordinator: cursor sum %d, %d recomputed", m.coord.syncSum, sum)
	}
	// Effective edge sets per vertex, after applying pending H deletions.
	for v := 0; v < m.cfg.N; v++ {
		st := m.statPeek(int32(v))
		if int(st.deg) != g.Degree(v) {
			return fmt.Errorf("vertex %d: stats degree %d, graph %d", v, st.deg, g.Degree(v))
		}
		want := g.Degree(v) >= m.coord.heavyAt
		if st.heavy != want {
			return fmt.Errorf("vertex %d: heavy=%v, degree %d, threshold %d", v, st.heavy, g.Degree(v), m.coord.heavyAt)
		}
		edges := map[int32]bool{}
		collect := func(mach int32) error {
			if mach < 0 {
				return nil
			}
			sm := &m.storage[int(mach)-1-len(m.stats)]
			for _, rec := range sm.edges[int32(v)] {
				if m.coord.deletedInH(mach, int32(v), rec.other) {
					continue
				}
				if edges[rec.other] {
					return fmt.Errorf("vertex %d: duplicate edge to %d", v, rec.other)
				}
				edges[rec.other] = true
			}
			return nil
		}
		if err := collect(st.home); err != nil {
			return err
		}
		for _, sm := range st.suspended {
			if err := collect(sm); err != nil {
				return err
			}
		}
		for _, w := range g.Neighbors(v) {
			if !edges[int32(w)] {
				return fmt.Errorf("vertex %d: edge to %d missing from storage", v, w)
			}
		}
		if len(edges) != g.Degree(v) {
			return fmt.Errorf("vertex %d: %d stored, %d in graph", v, len(edges), g.Degree(v))
		}
		if st.heavy {
			alive := &m.storage[int(st.home)-1-len(m.stats)]
			if len(alive.edges[int32(v)]) > m.coord.aliveCap {
				return fmt.Errorf("vertex %d: alive window %d exceeds cap %d",
					v, len(alive.edges[int32(v)]), m.coord.aliveCap)
			}
		} else if len(st.suspended) > 0 {
			return fmt.Errorf("light vertex %d has suspended machines", v)
		}
	}
	return nil
}
