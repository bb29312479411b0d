package amm

import (
	"math"
	"math/rand"
	"slices"

	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

type akind int32

const (
	aUpdate       akind = iota // external edge update at owner(u)
	aEdge                      // owner(u) -> owner(v): second half of the edge update
	aEdgeBack                  // owner(v) -> owner(u): commit both-free match / mirror
	aReport                    // owners -> scheduler: freed vertices, low supports, pending jobs
	aCycle                     // external: run this cycle's subscheduler batches
	aHandleFree                // scheduler -> owner: run handle-free(v)
	aCandidate                 // owner -> scheduler: sampled mate proposal
	aMatchOrder                // scheduler -> owner: commit (v,w) at level ℓ
	aExFreed                   // owner(w) -> owner(ex): your partner was stolen
	aUnmatchOrder              // scheduler -> owner: proactively unmatch v's edge
	aTick                      // scheduler -> owner: process Δ level-notification jobs
	aTickAck                   // owner -> scheduler: jobs drained or not
	aLvlUpd                    // owner -> owner: neighbor level mirror update
	aProbe                     // scheduler -> owner: rise/shuffle probe
	aProbeRep                  // owner -> scheduler
	aMateQuery                 // external mate query at owner(v)
)

type amsg struct {
	Kind    akind
	U, V    int32
	Seq     int64
	Del     bool
	Lvl     int32
	Support int32
	Free    bool
	Freed   []int32 // pairs (vertex, level)
	Low     []int32 // vertices whose matched edge lost support
	Active  []int32
	Pending bool
	Shuffle bool
	Found   bool
}

func (m *amsg) words() int {
	return 10 + len(m.Freed) + len(m.Low) + len(m.Active)
}

// send is ctx.Send of a copy of m that lives in o, the sender's
// mpc.Outbox: a handler receives an *amsg, valid until the end of the
// round, and copies what it keeps.
func send(ctx *mpc.Ctx, o *mpc.Outbox[amsg], to int, m amsg) {
	o.Send(ctx, to, m, m.words())
}

// vstate is the authoritative per-vertex state at its owner.
type vstate struct {
	lvl     int32 // -1 free
	mate    int32 // -1 free
	support int32
	// Membership of the shard's probe indexes, written by reindex only.
	// The flags sit in the padding after the int32s: vstate stays 24 bytes.
	inShuffle, inRise bool
	adj               map[int32]int32 // neighbor -> mirrored level
}

// phi is Φ_v(ℓ): v's neighbors whose mirrored level is below ℓ.
func (st *vstate) phi(l int) int {
	n := 0
	for _, wl := range st.adj {
		if int(wl) < l {
			n++
		}
	}
	return n
}

// job notifies v's neighbors about a level change, Δ per tick.
type job struct {
	v    int32
	todo []int32
}

type shard struct {
	id     int
	mu     int
	cfg    Config
	levels int
	verts  map[int32]*vstate
	jobs   []job
	rng    *rand.Rand
	out    mpc.Outbox[amsg]
	// The round's report is built in place in reports[round parity] and
	// sent as a copy that shares its Freed and Low lists, which the parity
	// keeps intact, like the payload, until the end of the next round.
	reports [2]amsg
	pool    []int32 // handleFree's scratch

	// MemWords' running terms: adjEntries is Σ len(vstate.adj), moved by
	// setAdj/delAdj only; jobWords is Σ 2+len(job.todo), moved where jobs
	// are queued and drained.
	adjEntries, jobWords int

	// The probe indexes, ascending owned ids: shuffle holds the vertices
	// shuffleCand admits, rise those riseCand admits. Runtime caches, never
	// billed; reindex is their one writer and Validate audits them.
	shuffle, rise []int32
	riseCap       int // the rise invariant's c·log² n
}

func newShard(id, mu int, cfg Config, levels int) *shard {
	return &shard{
		id: id, mu: mu, cfg: cfg, levels: levels,
		verts:   make(map[int32]*vstate),
		rng:     rand.New(rand.NewSource(cfg.Seed + int64(id)*7919)),
		riseCap: 4 * bits(cfg.N) * bits(cfg.N),
	}
}

func (s *shard) owner(v int32) int { return 1 + int(v)%s.mu }

func (s *shard) MemWords() int {
	return 4*len(s.verts) + 2*s.adjEntries + s.jobWords
}

func (s *shard) setAdj(st *vstate, w, lvl int32) {
	if _, ok := st.adj[w]; !ok {
		s.adjEntries++
	}
	st.adj[w] = lvl
}

func (s *shard) delAdj(st *vstate, w int32) {
	if _, ok := st.adj[w]; ok {
		s.adjEntries--
		delete(st.adj, w)
	}
}

func (s *shard) get(v int32) *vstate {
	st, ok := s.verts[v]
	if !ok {
		st = &vstate{lvl: -1, mate: -1, adj: make(map[int32]int32)}
		s.verts[v] = st
	}
	return st
}

// lookup reads v's state without creating it, for readers: a vertex never
// touched is free, at level -1.
func (s *shard) lookup(v int32) vstate {
	if st, ok := s.verts[v]; ok {
		return *st
	}
	return vstate{lvl: -1, mate: -1}
}

// shuffleCand: the shuffle subscheduler resamples matched edges at level
// ≥ 1, each named by its smaller endpoint.
func shuffleCand(v int32, st *vstate) bool {
	return st.mate >= 0 && st.lvl >= 1 && v < st.mate
}

// riseCand: Φ_v(ℓ) ≤ deg(v) and γ^ℓ·riseCap grows with ℓ, so only a vertex
// whose degree exceeds the bound at its lowest tested level ℓ = lvl+1 can
// violate the rise invariant.
func (s *shard) riseCand(st *vstate) bool {
	l := int(st.lvl) + 1
	return l < s.levels && len(st.adj) > pow(gamma, l)*s.riseCap
}

// reindex refreshes v's membership of both probe indexes. Every write to
// a vertex's mate, level or degree is made by a message naming that vertex,
// so HandleRound calls it once per such message.
func (s *shard) reindex(v int32) {
	st, ok := s.verts[v]
	if !ok {
		return
	}
	if in := shuffleCand(v, st); in != st.inShuffle {
		st.inShuffle = in
		s.shuffle = toggle(s.shuffle, v, in)
	}
	if in := s.riseCand(st); in != st.inRise {
		st.inRise = in
		s.rise = toggle(s.rise, v, in)
	}
}

// toggle inserts v into (in) or removes it from the ascending list ids.
func toggle(ids []int32, v int32, in bool) []int32 {
	i, _ := slices.BinarySearch(ids, v)
	if in {
		return slices.Insert(ids, i, v)
	}
	return slices.Delete(ids, i, i+1)
}

// queueLevelJob schedules neighbor notifications for v's new level. A job
// is billed two words (v and its level) plus its to-do list.
func (s *shard) queueLevelJob(v int32) {
	st := s.get(v)
	todo := make([]int32, 0, len(st.adj))
	for w := range st.adj {
		todo = append(todo, w)
	}
	slices.Sort(todo)
	s.jobs = append(s.jobs, job{v: v, todo: todo})
	s.jobWords += 2 + len(todo)
}

// setLevel moves v to lvl and queues the neighbor notifications.
func (s *shard) setLevel(v int32, lvl int32) {
	st := s.get(v)
	if st.lvl == lvl {
		return
	}
	st.lvl = lvl
	s.queueLevelJob(v)
}

// lowThreshold is (1-2ε)·γ^ℓ, the proactive unmatch trigger.
func (s *shard) lowThreshold(lvl int32) int32 {
	return int32((1 - 2*s.cfg.Eps) * float64(pow(gamma, int(lvl))))
}

func (s *shard) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	report := &s.reports[ctx.Round()&1]
	*report = amsg{Kind: aReport, Freed: report.Freed[:0], Low: report.Low[:0]}
	dirty := false
	sawProtocol := false

	for _, raw := range inbox {
		m, ok := raw.Payload.(*amsg)
		if !ok {
			continue
		}
		if m.Kind != aMateQuery {
			sawProtocol = true
		}
		switch m.Kind {
		case aUpdate:
			s.handleUpdate(ctx, m, report, &dirty)
		case aEdge:
			s.handleEdgeOther(ctx, m, report, &dirty)
		case aEdgeBack:
			st := s.get(m.U)
			s.setAdj(st, m.V, m.Lvl)
			if m.Found { // both-free match committed at the other side
				st.mate = m.V
				s.setLevel(m.U, 0)
				st.support = 1
				dirty = true
			}
		case aHandleFree:
			s.handleFree(ctx, m)
		case aMatchOrder:
			s.commitMatch(ctx, m, report, &dirty)
		case aExFreed:
			st := s.get(m.U)
			if st.mate == m.V {
				st.mate = -1
				st.lvl = -1
				s.queueLevelJob(m.U)
				dirty = true
			}
		case aUnmatchOrder:
			s.unmatchLocal(ctx, m.U, report, &dirty)
		case aTick:
			s.processJobs(ctx)
			send(ctx, &s.out, 0, amsg{Kind: aTickAck, U: int32(s.id), Pending: len(s.jobs) > 0})
		case aLvlUpd:
			st := s.get(m.U)
			if _, ok := st.adj[m.V]; ok {
				st.adj[m.V] = m.Lvl
			}
		case aProbe:
			send(ctx, &s.out, 0, s.probe(m.Shuffle))
		case aMateQuery: // the answer is mate(U); ApplyOps folds OpMatched from it
			ctx.Answer(int(m.Seq), graph.Answer{Int: int64(s.lookup(m.U).mate)})
		}
		switch m.Kind {
		case aUpdate, aEdge, aEdgeBack, aExFreed, aMatchOrder, aUnmatchOrder:
			s.reindex(m.U) // the one vertex whose mate, level or degree these write
		}
	}
	// Pure reads report nothing: queries mutate no state, and the
	// scheduler already learned of pending jobs from the protocol round
	// that queued them (and keeps them alive via aTickAck), so a
	// query-only round re-reporting would leak read-triggered traffic
	// into the next update window's accounting.
	pending := len(s.jobs) > 0
	if sawProtocol && (dirty || len(report.Freed) > 0 || len(report.Low) > 0 || pending) {
		report.Pending = pending
		report.U = int32(s.id)
		send(ctx, &s.out, 0, *report)
	}
}

// handleUpdate is the first half of an edge update, at owner(u).
func (s *shard) handleUpdate(ctx *mpc.Ctx, m *amsg, report *amsg, dirty *bool) {
	u, v := m.U, m.V
	if u == v {
		return
	}
	st := s.get(u)
	if !m.Del {
		s.setAdj(st, v, -2) // unknown until the mirror reply
		send(ctx, &s.out, s.owner(v), amsg{Kind: aEdge, U: v, V: u, Lvl: st.lvl, Free: st.mate == -1})
		return
	}
	// Delete.
	wasMate := st.mate == v
	s.delAdj(st, v)
	fwd := amsg{Kind: aEdge, U: v, V: u, Del: true, Found: wasMate, Lvl: st.lvl}
	if wasMate {
		report.Freed = append(report.Freed, u, st.lvl)
		st.mate = -1
		st.lvl = -1
		s.queueLevelJob(u)
		*dirty = true
	} else if st.mate >= 0 {
		st.support--
		if st.support < s.lowThreshold(st.lvl) {
			report.Low = append(report.Low, u)
			*dirty = true
		}
	}
	send(ctx, &s.out, s.owner(v), fwd)
}

// handleEdgeOther is the second half, at owner(v).
func (s *shard) handleEdgeOther(ctx *mpc.Ctx, m *amsg, report *amsg, dirty *bool) {
	v, u := m.U, m.V
	st := s.get(v)
	if m.Del {
		s.delAdj(st, u)
		if m.Found { // the deleted edge was the matched edge
			report.Freed = append(report.Freed, v, st.lvl)
			st.mate = -1
			st.lvl = -1
			s.queueLevelJob(v)
			*dirty = true
		} else if st.mate >= 0 {
			st.support--
			if st.support < s.lowThreshold(st.lvl) {
				report.Low = append(report.Low, v)
				*dirty = true
			}
		}
		return
	}
	s.setAdj(st, u, m.Lvl)
	back := amsg{Kind: aEdgeBack, U: u, V: v, Lvl: st.lvl}
	if m.Free && st.mate == -1 {
		// Both endpoints free: match at level 0 (§6's insertion rule).
		st.mate = u
		s.setLevel(v, 0)
		st.support = 1
		back.Found = true
		back.Lvl = 0
		*dirty = true
	}
	send(ctx, &s.out, s.owner(u), back)
}

// handleFree runs the §6 handle-free(v): choose the highest level ℓ with
// Φ_v(ℓ) ≥ γ^ℓ and sample a mate from the lower-level pool, excluding the
// active list.
func (s *shard) handleFree(ctx *mpc.Ctx, m *amsg) {
	v := m.U
	st := s.get(v)
	if st.mate >= 0 || len(st.adj) == 0 {
		return // nothing to do; scheduler's active entry expires
	}
	bestLvl := int32(-1)
	for l := 0; l < s.levels; l++ {
		if st.phi(l) >= pow(gamma, l) {
			bestLvl = int32(l)
		}
	}
	if bestLvl < 0 {
		return
	}
	pool := s.pool[:0]
	for w, wl := range st.adj {
		if wl >= bestLvl {
			continue
		}
		if _, active := slices.BinarySearch(m.Active, w); !active { // dispatch sorts the list
			pool = append(pool, w)
		}
	}
	s.pool = pool
	if len(pool) == 0 {
		return
	}
	slices.Sort(pool)
	w := pool[s.rng.Intn(len(pool))]
	send(ctx, &s.out, 0, amsg{Kind: aCandidate, U: v, V: w, Lvl: bestLvl, Support: int32(len(pool))})
}

// commitMatch applies an arbitrated match order for the vertex this shard
// owns. The first order (to w's owner, Found=true) steals w from its
// current partner if necessary.
func (s *shard) commitMatch(ctx *mpc.Ctx, m *amsg, report *amsg, dirty *bool) {
	v := m.U
	st := s.get(v)
	if m.Found && st.mate >= 0 {
		// Steal: the ex-partner is freed.
		ex := st.mate
		exLvl := st.lvl
		send(ctx, &s.out, s.owner(ex), amsg{Kind: aExFreed, U: ex, V: v})
		report.Freed = append(report.Freed, ex, exLvl)
		*dirty = true
	}
	st.mate = m.V
	st.support = m.Support
	s.setLevel(v, m.Lvl)
	*dirty = true
}

// processJobs delivers up to Δ pending level notifications.
func (s *shard) processJobs(ctx *mpc.Ctx) {
	budget, done := s.cfg.delta, 0
	for budget > 0 && done < len(s.jobs) {
		j := &s.jobs[done]
		n := budget
		if n > len(j.todo) {
			n = len(j.todo)
		}
		// The level sent is v's current one, not the one the job was queued
		// with: a job delivered after later changes of v (an edge deleted and
		// re-inserted in one batch) would otherwise overwrite a neighbour's
		// fresher mirror with a stale level.
		lvl := s.verts[j.v].lvl
		for _, w := range j.todo[:n] {
			send(ctx, &s.out, s.owner(w), amsg{Kind: aLvlUpd, U: w, V: j.v, Lvl: lvl})
		}
		j.todo = j.todo[n:]
		budget -= n
		s.jobWords -= n
		if len(j.todo) == 0 {
			done++
			s.jobWords -= 2
		}
	}
	// Drop the finished jobs in place: the queue keeps its capacity.
	s.jobs = slices.Delete(s.jobs, 0, done)
}

// unmatchLocal proactively unmatches v's edge (unmatch/shuffle/rise
// schedulers).
func (s *shard) unmatchLocal(ctx *mpc.Ctx, v int32, report *amsg, dirty *bool) {
	st := s.get(v)
	if st.mate < 0 {
		return
	}
	ex := st.mate
	lvl := st.lvl
	st.mate = -1
	st.lvl = -1
	s.queueLevelJob(v)
	send(ctx, &s.out, s.owner(ex), amsg{Kind: aExFreed, U: ex, V: v})
	report.Freed = append(report.Freed, v, lvl, ex, lvl)
	*dirty = true
}

// probe serves the rise/shuffle subschedulers from the probe indexes:
// report a random matched vertex at level >= 1 (shuffle) or the least
// Φ-invariant violator (rise).
func (s *shard) probe(shuffle bool) amsg {
	rep := amsg{Kind: aProbeRep, Shuffle: shuffle}
	if shuffle {
		if len(s.shuffle) > 0 {
			rep.Found = true
			rep.U = s.shuffle[s.rng.Intn(len(s.shuffle))]
		}
		return rep
	}
	// Rise probe: Φ_v(ℓ) must stay ≤ γ^ℓ · c·log² n for ℓ > lvl(v).
	for _, v := range s.rise {
		st := s.verts[v]
		for l := int(st.lvl) + 1; l < s.levels; l++ {
			if st.phi(l) > pow(gamma, l)*s.riseCap {
				rep.Found, rep.U, rep.Lvl = true, v, int32(l)
				return rep
			}
		}
	}
	return rep
}

// scheduler is machine 0: queues, active list, subscheduler arbitration.
type scheduler struct {
	mu int

	queues          [][]int32 // per level (index lvl+1)
	active          map[int32]bool
	lowSupp         map[int32]bool
	pendingJobs     map[int32]bool
	pendingUnmatch  []int32
	pendingAckClear []int32
	rng             *rand.Rand
	cycle           int64
	out             mpc.Outbox[amsg]
	seen            map[int32]bool // dispatch's scratch
	acts            [2][]int32     // dispatch's active lists by round parity: payloads, under mpc.Outbox's rule
}

func newScheduler(cfg Config, mu, levels int) *scheduler {
	return &scheduler{
		mu:          mu,
		queues:      make([][]int32, levels+1),
		active:      make(map[int32]bool),
		lowSupp:     make(map[int32]bool),
		pendingJobs: make(map[int32]bool),
		seen:        make(map[int32]bool),
		rng:         rand.New(rand.NewSource(cfg.Seed ^ 0x5bf0_3635)),
	}
}

func (s *scheduler) MemWords() int {
	w := len(s.active) + len(s.lowSupp) + len(s.pendingJobs) + len(s.pendingUnmatch)
	for _, q := range s.queues {
		w += len(q)
	}
	return w + 8
}

func (s *scheduler) owner(v int32) int { return 1 + int(v)%s.mu }

func (s *scheduler) enqueue(v, lvl int32) {
	idx := int(lvl) + 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.queues) {
		idx = len(s.queues) - 1
	}
	s.queues[idx] = append(s.queues[idx], v)
}

func (s *scheduler) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	runCycle := false
	for _, raw := range inbox {
		m, ok := raw.Payload.(*amsg)
		if !ok {
			continue
		}
		switch m.Kind {
		case aReport:
			for i := 0; i+1 < len(m.Freed); i += 2 {
				s.enqueue(m.Freed[i], m.Freed[i+1])
			}
			for _, v := range m.Low {
				s.lowSupp[v] = true
			}
			if m.Pending {
				s.pendingJobs[m.U] = true
			}
		case aTickAck:
			if !m.Pending {
				delete(s.pendingJobs, m.U)
			} else {
				s.pendingJobs[m.U] = true
			}
		case aCycle:
			runCycle = true
		case aCandidate:
			s.arbitrate(ctx, m)
		case aProbeRep:
			if m.Found {
				s.pendingUnmatch = append(s.pendingUnmatch, m.U)
				if !m.Shuffle {
					// Rise: requeue at the violating level after unmatching.
					s.enqueue(m.U, m.Lvl)
				}
			}
		}
	}
	if runCycle {
		s.dispatch(ctx)
	}
}

// dispatch runs one Δ-bounded batch of every subscheduler family.
func (s *scheduler) dispatch(ctx *mpc.Ctx) {
	s.cycle++
	// Match orders always commit, so the previous cycle's active entries
	// expire now.
	for _, v := range s.pendingAckClear {
		delete(s.active, v)
	}
	s.pendingAckClear = s.pendingAckClear[:0]
	// Deferred unmatch orders (shuffle/rise picks from the previous cycle,
	// low-support edges from the unmatch-scheduler), sent from the
	// pending list itself, which then starts over with its capacity.
	orders := s.pendingUnmatch
	if len(s.lowSupp) > 0 {
		low := int32(math.MaxInt32)
		for v := range s.lowSupp {
			low = min(low, v)
		}
		orders = append(orders, low) // lowest-support proxy: one per cycle
		delete(s.lowSupp, low)
	}
	clear(s.seen)
	for _, v := range orders {
		if s.seen[v] || s.active[v] {
			continue
		}
		s.seen[v] = true
		send(ctx, &s.out, s.owner(v), amsg{Kind: aUnmatchOrder, U: v})
	}
	s.pendingUnmatch = orders[:0]

	// Free-schedule: pop one vertex per level, highest level first (the
	// paper's processing order), and dispatch handle-free with the active
	// list attached.
	p := ctx.Round() & 1
	act := s.acts[p][:0]
	for v := range s.active {
		act = append(act, v)
	}
	slices.Sort(act)
	s.acts[p] = act
	for lvl := len(s.queues) - 1; lvl >= 0; lvl-- {
		q := s.queues[lvl]
		popped := 0
		for popped < len(q) {
			v := q[popped]
			popped++
			if s.active[v] {
				continue
			}
			send(ctx, &s.out, s.owner(v), amsg{Kind: aHandleFree, U: v, Active: act})
			break
		}
		s.queues[lvl] = slices.Delete(q, 0, popped) // the queue keeps its capacity
	}

	// Tick machines with pending level-notification jobs.
	for m := range s.pendingJobs {
		send(ctx, &s.out, int(m), amsg{Kind: aTick})
	}

	// Shuffle and rise probes, one random shard each every few cycles.
	if s.cycle%4 == 0 {
		send(ctx, &s.out, 1+s.rng.Intn(s.mu), amsg{Kind: aProbe, Shuffle: true})
	}
	if s.cycle%4 == 2 {
		send(ctx, &s.out, 1+s.rng.Intn(s.mu), amsg{Kind: aProbe})
	}
}

// arbitrate resolves candidate conflicts: first valid candidate per vertex
// wins; both sides become active until their acks arrive.
func (s *scheduler) arbitrate(ctx *mpc.Ctx, m *amsg) {
	v, w := m.U, m.V
	if s.active[v] || s.active[w] {
		s.enqueue(v, m.Lvl) // retry later
		return
	}
	s.active[v], s.active[w] = true, true
	// w's side first (it may steal), then v's side.
	send(ctx, &s.out, s.owner(w), amsg{Kind: aMatchOrder, U: w, V: v, Lvl: m.Lvl, Support: m.Support, Found: true})
	send(ctx, &s.out, s.owner(v), amsg{Kind: aMatchOrder, U: v, V: w, Lvl: m.Lvl, Support: m.Support})
	// Acks are implicit: both orders always commit (the steal frees the
	// ex-partner), so the active entries clear at the next cycle.
	s.pendingAckClear = append(s.pendingAckClear, v, w)
}
