// Package amm implements §6 of the paper: a fully-dynamic (2+ε)-approximate
// — almost-maximal — matching in the DMPC model with O(1) rounds per
// update, Õ(1) active machines and Õ(1) communication per round, adapting
// the Charikar–Solomon framework [13].
//
// Vertices carry levels: free vertices sit at level -1, a matched edge
// lives at the level ℓ at which its endpoint sampled it from a pool of
// ≥ γ^ℓ lower-level neighbors (the pool size is the edge's support, which
// decays as incident edges are deleted). Four subscheduler families run a
// Δ-bounded batch inside every update cycle:
//
//   - free-schedule pops temporarily-free vertices from the per-level
//     queues Q_ℓ and runs handle-free: pick the highest level ℓ with
//     Φ_v(ℓ) ≥ γ^ℓ, sample a mate from the lower-level pool (stealing it
//     from its current partner if matched) and requeue the ex-partner;
//   - unmatch-schedule proactively unmatches the lowest-support edge per
//     level once its support decays below (1-2ε)γ^ℓ, keeping the
//     probability of an adversarial hit low;
//   - shuffle-schedule resamples a random matched edge at a random level;
//   - rise-schedule lifts a vertex violating the Φ invariant
//     (Φ_v(ℓ) ≤ c·γ^ℓ·log² n) to the violating level and rematches it.
//
// All subscheduler picks are arbitrated by one scheduler machine per
// update cycle (the paper's conflict resolution sends the candidate lists
// "to the same machine"); the active list A keeps in-flight vertices out
// of the sampling pools. Level-change notifications to neighbors are
// processed in Δ-sized chunks per cycle by the owning machines (the
// paper's batched set-level), so mirrors lag at most O(deg/Δ) cycles;
// matching state itself is always authoritative at the owners.
//
// What is measured and tested: every update cycle costs a constant number
// of rounds; active machines and words per round stay polylogarithmic; the
// matching is always valid; and the maximality deficit (edges with both
// endpoints free) stays an ε-fraction — vertices wait in queues only O(1)
// cycles in expectation. The full [13] analysis constants (Δ = Θ(log⁵ n))
// are scaled to Δ = c·log n to keep simulations meaningful; DESIGN.md
// records this.
package amm

import (
	"fmt"
	"math"

	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/sched"
)

// gamma is the level base γ.
const gamma = 4

// Config sizes an instance.
type Config struct {
	N    int
	Eps  float64 // support slack; default 0.2
	Seed int64
	// Workers is the cluster's mpc.Config.Workers: at most 1 runs every
	// handler inline on the driver, w ≥ 2 shards the machines over worker
	// goroutines and requires Close.
	Workers int
	// Deprecated: ignored; Workers alone decides how handlers run.
	Backend mpc.BackendKind

	delta int // batch budget Δ = 4·⌈log2 n⌉, derived by New
}

// M is the §6 structure.
type M struct {
	cfg     Config
	cluster *mpc.Cluster
	shards  []*shard
	sched   *scheduler
	packer  *sched.Admitter // cuts update runs into endpoint-disjoint waves
	seq     int64
	out     mpc.Outbox[amsg] // the driver's payloads, slabbed by the round they are sent before
	keys    [2]int64         // StreamItem's claim keys
}

// New builds an empty instance.
func New(cfg Config) *M {
	if cfg.N <= 0 {
		panic("amm: need at least one vertex")
	}
	if cfg.Eps <= 0 {
		cfg.Eps = 0.2
	}
	cfg.delta = 4 * bits(cfg.N)
	mu := int(math.Ceil(math.Sqrt(float64(cfg.N))))*2 + 2
	levels := 1
	for pow(gamma, levels) < cfg.N {
		levels++
	}
	cl := mpc.NewCluster(mpc.Config{Machines: mu + 1, MemWords: 1 << 20, Workers: cfg.Workers})
	m := &M{cfg: cfg, packer: sched.NewAdmitterFair(0, nil)}
	m.cluster = cl
	m.sched = newScheduler(cfg, mu, levels)
	cl.SetMachine(0, m.sched)
	m.shards = make([]*shard, mu)
	for i := 0; i < mu; i++ {
		m.shards[i] = newShard(i+1, mu, cfg, levels)
		cl.SetMachine(i+1, m.shards[i])
	}
	return m
}

func bits(n int) int {
	b := 1
	for 1<<b < n {
		b++
	}
	return b
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
		if out > 1<<30 {
			return out
		}
	}
	return out
}

// Cluster exposes accounting.
func (m *M) Cluster() *mpc.Cluster { return m.cluster }

// Close releases the cluster's worker goroutines (Workers ≥ 2). The
// structure must not be used afterwards.
func (m *M) Close() { m.cluster.Close() }

func (m *M) owner(v int) int { return 1 + v%(len(m.shards)) }

// Insert adds edge (u,v) and runs one fixed-schedule update cycle — the
// paper's per-update §6 protocol, and the one update driver in the tree
// that is not ApplyOps: it is not a duplicate of a length-1 ApplyOps run
// (seven rounds per update against the batch path's inject-then-drain
// schedule, and a different valid matching; DESIGN.md §3 has the figures),
// so Table 1's §6 row and every k=1 §6 baseline measure it directly. The
// cycle is billed as a wave-free window of one update, whose update half
// is returned.
func (m *M) Insert(u, v int) mpc.HalfStats {
	return m.update(graph.Update{Op: graph.Insert, U: u, V: v})
}

// Delete removes edge (u,v) and runs one update cycle.
func (m *M) Delete(u, v int) mpc.HalfStats {
	return m.update(graph.Update{Op: graph.Delete, U: u, V: v})
}

func (m *M) update(up graph.Update) mpc.HalfStats {
	m.seq++
	m.cluster.BeginMixed(1, 0)
	m.send(m.owner(up.U), amsg{Kind: aUpdate, U: int32(up.U), V: int32(up.V), Del: up.Op == graph.Delete, Seq: m.seq}, 4)
	// The edge update itself plus one batch of every subscheduler: a
	// constant number of rounds by construction.
	m.cluster.Round() // owner(u) processes, contacts owner(v)
	m.cluster.Round() // owner(v) processes, reports to scheduler
	m.send(0, amsg{Kind: aCycle, Seq: m.seq}, 1)
	m.cluster.Round() // scheduler ingests reports, dispatches batch orders
	m.cluster.Round() // owners execute orders, reply candidates/acks
	m.cluster.Round() // scheduler arbitrates, sends match orders
	m.cluster.Round() // owners apply matches, report freed ex-partners
	m.cluster.Round() // scheduler ingests final reports
	return m.cluster.EndMixed().Updates
}

// send injects a driver message whose payload lives in m.out.
func (m *M) send(to int, p amsg, words int) {
	m.cluster.Send(mpc.Message{From: -1, To: to, Payload: m.out.Put(m.cluster.Stats().Rounds, p), Words: words})
}

// StreamItem is the coarse claims oracle of the §6 structure: its epoch
// scheduler rebuilds data-dependent slices of the matching, so the safe
// schedule-time view is endpoint-level — updates hold both endpoints
// exclusively, reads hold their vertex read-shared. injectWaves cuts
// update runs with it, and the streaming Ingestor its forming set, where
// coarser claims only flush earlier (ApplyOps itself orders every flushed
// chunk correctly), so this errs toward latency, never correctness. The
// returned item's slices are M's and valid until the next call
// (sched.Admitter.Admit copies what it keeps).
func (m *M) StreamItem(op graph.Op) sched.Item {
	m.keys = [2]int64{int64(op.U), int64(op.V)}
	if op.IsQuery() {
		return sched.Item{Read: m.keys[:1]}
	}
	return sched.Item{Excl: m.keys[:]}
}

// injectWaves injects an update run as endpoint-disjoint waves of three
// rounds each — a wave is the longest prefix the packer admits whole, and
// such updates mutate disjoint vertex state, so they commute exactly —
// each wave attributed inside the open mixed window.
func (m *M) injectWaves(run []graph.Op) {
	for len(run) > 0 {
		m.packer.Reset()
		k := 0
		for k < len(run) && m.packer.Admit(m.StreamItem(run[k])) {
			k++
		}
		m.cluster.BeginMixedWave(run[:k], nil)
		for _, op := range run[:k] {
			up := op.Update()
			m.seq++
			m.send(m.owner(up.U), amsg{Kind: aUpdate, U: int32(up.U), V: int32(up.V), Del: up.Op == graph.Delete, Seq: m.seq}, 4)
		}
		run = run[k:]
		m.cluster.Round() // owners of U process, contact owners of V
		m.cluster.Round() // owners of V process, reply / report
		m.cluster.Round() // both-free commits land back at owners of U
		m.cluster.EndMixedWave()
	}
}

// drainCycles runs scheduler cycles until the free-vertex queues drain or
// stop shrinking, with a budget proportional to the updates just applied.
// A backlog can legitimately persist (queued vertices whose pools are all
// exhausted re-queue; sequential mode leaves them waiting too), so it
// stops as soon as a cycle fails to shrink the queues rather than
// spinning the full budget.
func (m *M) drainCycles(updates int) {
	maxCycles := updates + 4
	prev := -1
	for cyc := 0; cyc < maxCycles; cyc++ {
		m.seq++
		m.send(0, amsg{Kind: aCycle, Seq: m.seq}, 1)
		for r := 0; r < 5; r++ {
			m.cluster.Round()
		}
		bl := m.QueueBacklog()
		if bl == 0 || (prev >= 0 && bl >= prev) {
			break
		}
		prev = bl
	}
}

// ApplyOps processes a mixed op stream — updates *and* typed reads
// (OpMateOf, OpMatched) — in one mixed round-accounting window
// (mpc.MixedStats). Every maximal update run is injected in
// endpoint-disjoint waves (see injectWaves); then, instead of one update
// cycle per update, scheduler cycles run only until the free-vertex
// queues drain or stop shrinking (see drainCycles). Each cycle processes a
// Δ-bounded batch of every subscheduler family, so a run of k updates
// needs on the order of k/Δ cycles — this is where the amortized rounds
// per update drop. A run of consecutive reads settles in-flight traffic
// and is answered by the authoritative owners in one query-only wave
// (settle and answer rounds both charged to the query half), observing
// exactly the batched matching state at its stream position.
//
// amm's update cycles are randomized per cycle rather than per update, so
// unlike dyncon and dmm the pipeline does not promise bit-equivalence with
// one-op-at-a-time replay: the resulting matching is valid and
// almost-maximal over the same final graph, but the exact matched edges
// may differ because shuffle/rise probes fire per cycle, not per update
// (see DESIGN.md).
//
// Answers are positional over the stream's queries: the j-th entry of the
// returned Results answers the j-th op with IsQuery() true.
func (m *M) ApplyOps(ops []graph.Op) (graph.Results, mpc.MixedStats) {
	nu, nq := graph.CountOps(ops)
	m.cluster.BeginMixed(nu, nq)
	for i := 0; i < len(ops); {
		if !ops[i].IsQuery() {
			// Maximal update run, then the run's share of scheduler cycles
			// so any following read observes the post-cycle matching.
			j := i
			for j < len(ops) && !ops[j].IsQuery() {
				j++
			}
			m.injectWaves(ops[i:j])
			m.drainCycles(j - i)
			i = j
			continue
		}
		// Maximal read run. Settle in-flight update traffic before
		// injecting the reads — an undelivered aExFreed sorts after a
		// driver query in the same inbox, so answering first would return
		// the pre-steal mate. The settle rounds are charged to the read
		// side (the query-only wave) rather than left to perturb the
		// update half's figures.
		j := i
		for j < len(ops) && ops[j].IsQuery() {
			j++
		}
		m.cluster.BeginMixedWave(ops[i:j], nil)
		m.cluster.Drain(64, "amm: pre-read settle")
		for x := i; x < j; x++ {
			op := ops[x]
			switch op.Kind {
			case graph.OpMateOf, graph.OpMatched:
			default:
				panic(fmt.Sprintf("amm: unsupported query kind %v (matching answers OpMateOf and OpMatched)", op.Kind))
			}
			m.send(m.owner(op.U), amsg{Kind: aMateQuery, U: int32(op.U), Seq: int64(x)}, 3)
		}
		m.cluster.Drain(64, "amm: read wave")
		m.cluster.EndMixedWave()
		i = j
	}
	st := m.cluster.EndMixed()
	res := m.cluster.Answers(ops)
	graph.FoldMatched(ops, res)
	return res, st
}

// vert reads v's state at its owner without creating it: the oracles
// below read, so they must not change the memory they report.
func (m *M) vert(v int) vstate { return m.shards[m.owner(v)-1].lookup(int32(v)) }

// MateTable reads the authoritative mates — driver-side oracle access for
// validation only, not part of the protocol accounting. The protocol
// queries are OpMateOf/OpMatched ops.
func (m *M) MateTable() []int {
	out := make([]int, m.cfg.N)
	for v := 0; v < m.cfg.N; v++ {
		out[v] = int(m.vert(v).mate)
	}
	return out
}

// Levels reads the level decomposition (driver-side oracle).
func (m *M) Levels() []int {
	out := make([]int, m.cfg.N)
	for v := 0; v < m.cfg.N; v++ {
		out[v] = int(m.vert(v).lvl)
	}
	return out
}

// QueueBacklog reports the number of vertices waiting in the scheduler's
// queues (the transient non-maximality source).
func (m *M) QueueBacklog() int {
	total := 0
	for _, q := range m.sched.queues {
		total += len(q)
	}
	return total
}

// Validate checks the §6 invariants that must hold at every quiescent
// point: the matching is consistent; matched vertices have level ≥ 0 and
// both endpoints of a matched edge share its level; free vertices are at
// level -1; any free-free edge's endpoints are queued or active (the
// almost-maximality bookkeeping); every shard's running MemWords equals a
// recomputation by scan; and both probe indexes equal theirs. It reads
// without writing.
func (m *M) Validate(g *graph.Graph) error {
	for _, sh := range m.shards {
		if got, want := sh.MemWords(), sh.scanWords(); got != want {
			return fmt.Errorf("machine %d: shard word counter %d, %d recomputed", sh.id, got, want)
		}
		if err := sh.auditIndexes(); err != nil {
			return err
		}
	}
	pending := map[int32]bool{}
	for _, q := range m.sched.queues {
		for _, v := range q {
			pending[v] = true
		}
	}
	for v := range m.sched.active {
		pending[v] = true
	}
	for v := 0; v < m.cfg.N; v++ {
		st := m.vert(v)
		if st.mate >= 0 {
			other := m.vert(int(st.mate))
			if other.mate != int32(v) {
				return fmt.Errorf("vertex %d: mate %d disagrees", v, st.mate)
			}
			if !g.Has(v, int(st.mate)) {
				return fmt.Errorf("matched edge (%d,%d) not in graph", v, st.mate)
			}
			if st.lvl < 0 {
				return fmt.Errorf("matched vertex %d at level %d", v, st.lvl)
			}
			if st.lvl != other.lvl {
				return fmt.Errorf("matched edge (%d,%d) spans levels %d,%d", v, st.mate, st.lvl, other.lvl)
			}
		} else if st.lvl != -1 {
			return fmt.Errorf("free vertex %d at level %d", v, st.lvl)
		}
	}
	for _, e := range g.Edges() {
		if m.vert(e.U).mate == -1 && m.vert(e.V).mate == -1 && !pending[int32(e.U)] && !pending[int32(e.V)] {
			return fmt.Errorf("free-free edge (%d,%d) with neither endpoint pending", e.U, e.V)
		}
	}
	return nil
}
