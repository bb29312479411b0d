// Package mpc implements a deterministic simulator for the DMPC model of
// Italiano, Lattanzi, Mirrokni and Parotsidis (SPAA 2019): a cluster of µ
// machines, each with S words of memory, exchanging messages in synchronous
// rounds.
//
// The simulator accounts for exactly the three quantities the DMPC model
// charges a dynamic algorithm for:
//
//   - the number of rounds required to process each update,
//   - the number of machines that are active in each round, and
//   - the total number of words communicated in each round.
//
// A machine is active in a round if it sends or receives at least one
// message in that round, or if it was explicitly scheduled to run.
// Message delivery order is deterministic, so simulations are
// reproducible for a fixed seed regardless of GOMAXPROCS.
//
// # Execution
//
// The Cluster owns a round — delivery, the active set, staging, pair
// accounting, the I/O and memory caps — and one worker pool runs the
// round's handlers. Config.Workers alone says how: at most 1 (the
// default) runs every handler inline on the driver goroutine, with no
// goroutine to release; w ≥ 2 shards the machines over min(w, µ) shards,
// run by long-lived workers woken over channels each round plus the
// driver, and such a cluster must be Close()d to release them. The pool
// sees only the active set and the contexts to run it against, so every
// worker count produces bit-identical answers and Stats for the same
// inputs. A handler panic reaches the caller of Round on the driver at
// every worker count, naming the machine, and closes the cluster.
package mpc

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"dmpc/internal/graph"
)

// Message is a single inter-machine message. Payload stays in process (the
// simulator never serializes); Words is the size charged to the model's
// communication measure and must be set by the sender; the Cluster coerces
// Words ≤ 0 to 1.
type Message struct {
	From    int
	To      int
	Payload any
	Words   int

	// seq is the per-sender sequence number for deterministic delivery
	// order; a negative one marks a broadcast entry (Ctx.Broadcast).
	seq int
}

// Machine is the behavior of one simulated DMPC machine. Implementations
// hold the machine's local state; HandleRound is called once per round in
// which the machine is active and must not touch other machines' state
// except through ctx.Send.
type Machine interface {
	// HandleRound processes the inbox for this round. It may send messages
	// for delivery at the start of the next round via ctx.Send and may
	// schedule itself or others for the next round via ctx.Schedule.
	HandleRound(ctx *Ctx, inbox []Message)
}

// MemReporter is optionally implemented by machines that can report their
// local memory footprint in words; the cluster uses it to enforce the
// per-machine memory cap in strict mode and to report peak usage.
type MemReporter interface {
	MemWords() int
}

// Config describes a cluster. The zero value is not usable; call Auto or
// fill in the fields explicitly.
type Config struct {
	// Machines is µ, the number of machines in the cluster.
	Machines int
	// MemWords is S, the per-machine memory budget in words. In strict
	// mode it also caps per-machine per-round communication, as in the
	// model definition ("each machine can send and receive messages of
	// total size up to S at each round").
	MemWords int
	// Strict makes constraint violations (memory over S, per-round I/O
	// over S, sends to out-of-range machines) fatal via panic. Violations
	// are always counted in Stats regardless.
	Strict bool
	// Workers is how many goroutines run a round's handlers: at most 1
	// (the default) runs them all inline on the driver; w ≥ 2 shards the
	// machines over min(w, µ) shards, the driver running one and a
	// long-lived worker goroutine each of the others. It never changes
	// answers or accounting, only wall-clock time.
	Workers int
	// Backend is ignored.
	//
	// Deprecated: Workers alone decides how handlers run.
	Backend BackendKind
}

// BackendKind once selected between two executors; there is one now.
//
// Deprecated: set Config.Workers instead. The name and its two constants
// are no-ops, kept only until the last callers move off them.
type BackendKind int

// Deprecated: ignored, like Config.Backend.
const (
	BackendSim BackendKind = iota
	BackendParallel
)

// Auto returns the canonical DMPC configuration for an input of size n
// words: S = scale·⌈√n⌉ memory words per machine and µ = ⌈n/S⌉+slack
// machines, so that total memory is Θ(N) as required by the paper.
func Auto(inputWords int, scale float64) Config {
	if inputWords < 1 {
		inputWords = 1
	}
	if scale <= 0 {
		scale = 4
	}
	s := int(scale * math.Ceil(math.Sqrt(float64(inputWords))))
	if s < 16 {
		s = 16
	}
	mu := (inputWords+s-1)/s + 4
	if mu < 4 {
		mu = 4
	}
	return Config{Machines: mu, MemWords: s}
}

// RoundStats records the accounting for a single synchronous round.
type RoundStats struct {
	Active   int // machines that sent, received, or were scheduled
	Words    int // total message words delivered into this round
	Messages int // number of messages delivered into this round
}

// HalfStats aggregates the rounds of one accounting half of a mixed
// window — the window's updates or its queries — which the half's Ops ops
// share: the window is charged once, so RoundsPerOp is the amortized cost
// the batch-dynamic model (Nowicki–Onak, arXiv:2002.07800) optimizes for.
// A window of one update is the per-update bill of Table 1.
type HalfStats struct {
	Ops       int // k, the number of updates resp. queries the half covers
	Rounds    int
	MaxActive int // max active machines over the half's rounds
	SumActive int
	MaxWords  int // max communicated words in any round of the half
	SumWords  int
}

// Add folds a round into the aggregate.
func (h *HalfStats) Add(r RoundStats) {
	h.Rounds++
	h.SumActive += r.Active
	h.SumWords += r.Words
	if r.Active > h.MaxActive {
		h.MaxActive = r.Active
	}
	if r.Words > h.MaxWords {
		h.MaxWords = r.Words
	}
}

// RoundsPerOp returns the half's amortized rounds per op.
func (h HalfStats) RoundsPerOp() float64 {
	if h.Ops == 0 {
		return 0
	}
	return float64(h.Rounds) / float64(h.Ops)
}

// WaveStats attributes a slice of a mixed window to one concurrent wave: a
// set of ops the algorithm executed simultaneously because they were
// pairwise conflict-free at schedule time. Wave widths are the direct
// measure of how much parallelism the scheduler extracted — a window whose
// waves are all width 1 degenerates to sequential replay.
type WaveStats struct {
	Updates int // wave width: updates executed concurrently in this wave
	Queries int // reads sequenced into this wave
}

// MixedStats aggregates one window — the only kind there is: a single
// scheduled run of updates *and* queries, with the rounds attributed to
// the two accounting halves without ever letting one leak into the other.
// The attribution rule is per wave: a round folds into the query half iff
// the open wave is query-only (it executes reads and nothing else); every
// other round — update-bearing waves, scheduling and drain rounds outside
// any wave — folds into the update half. A query sequenced into an
// update-bearing wave therefore rides that wave's rounds for free, which
// is exactly the batch-dynamic win the pipeline exists to measure, while
// the update half of a read-free window is the whole window — which is
// how the drivers outside the op pipeline (static baselines, the §7
// reduction, §6's per-update cycle) bill: a wave-free window whose update
// half they return.
type MixedStats struct {
	Ops     int         // updates + queries covered by the window
	Updates HalfStats   // update half; its waves are the Waves with Updates > 0
	Queries HalfStats   // query half: the query-only waves
	Waves   []WaveStats // every wave of the window, in execution order
}

// Rounds returns the whole window's round count (both halves).
func (m MixedStats) Rounds() int { return m.Updates.Rounds + m.Queries.Rounds }

// Equal reports deep equality, including the per-wave attribution.
func (m MixedStats) Equal(o MixedStats) bool {
	if m.Ops != o.Ops || m.Updates != o.Updates || m.Queries != o.Queries ||
		len(m.Waves) != len(o.Waves) {
		return false
	}
	for i := range m.Waves {
		if m.Waves[i] != o.Waves[i] {
			return false
		}
	}
	return true
}

// Stats is the lifetime accounting of a cluster: running totals. The
// window currently open lives in the Cluster; a closed one is returned to
// whoever opened it (EndMixed) and never retained, so a cluster's
// footprint does not grow with the number of windows it has served.
type Stats struct {
	Rounds       int
	Messages     int
	Words        int
	PeakMemWords int
	Violations   int
	pairWords    map[uint64]int // unicast volume per (from,to) pair, keyed by pairKey

	// Broadcast volume per broadcasting sender, billed once per broadcast
	// instead of once per copy: [0] the words sent to every machine, [1] to
	// every machine but the sender. pairVolumes folds it into pairWords
	// when read. Made at the first broadcast, so a cluster that never
	// broadcasts holds none, and one word wide, so Cluster keeps its
	// allocation size class.
	bcastWords map[int][2]int
}

// Cluster is a simulated DMPC cluster. It is not safe for concurrent use by
// multiple goroutines; one Cluster drives one simulation.
//
// Activation is sparse: pending holds exactly the ids that received a
// message or were scheduled since the last round, unordered and
// deduplicated through inPending, so a round costs O(active·log active +
// delivered) rather than a scan of all µ machines, and Quiescent is a
// length check. active is the ascending scratch pending is sorted into
// each round; the two buffers swap, so neither is reallocated.
type Cluster struct {
	cfg      Config
	machines []Machine
	stats    Stats
	exec     *workerPool // how a round's handlers run

	inboxes   [][]Message
	pending   []int
	inPending []bool
	active    []int

	pool msgPool // retired inbox backing arrays, payload-cleared (pool.go)
	slab []Ctx   // one recycled context per active machine, positional over active

	// The open window and wave (nil: none) point at mixed and wave, reused
	// with the wave log's storage; EndMixed hands out a copy.
	currentMixed *MixedStats
	currentWave  *WaveStats
	mixed        MixedStats
	wave         WaveStats

	answers []answer // the window's answers in settle order, collected by Answers
	slots   []int    // Answers' scratch: each stream position's result index

	debugActive func([]int) // set by tests: sees every round's active set as beginRound computed it
}

// NewCluster builds a cluster with the given configuration. Machines are
// attached afterwards with SetMachine; unattached slots are inert.
func NewCluster(cfg Config) *Cluster {
	if cfg.Machines <= 0 {
		panic("mpc: cluster needs at least one machine")
	}
	if cfg.MemWords <= 0 {
		panic("mpc: per-machine memory must be positive")
	}
	c := &Cluster{
		cfg:       cfg,
		machines:  make([]Machine, cfg.Machines),
		inboxes:   make([][]Message, cfg.Machines),
		inPending: make([]bool, cfg.Machines),
	}
	c.stats.pairWords = make(map[uint64]int)
	c.exec = newWorkerPool(c, cfg.Workers)
	return c
}

// Machines returns µ.
func (c *Cluster) Machines() int { return c.cfg.Machines }

// MemWords returns S.
func (c *Cluster) MemWords() int { return c.cfg.MemWords }

// Stats exposes the lifetime accounting. The pointer stays valid for the
// cluster's lifetime.
func (c *Cluster) Stats() *Stats { return &c.stats }

// SetMachine attaches m to slot id.
func (c *Cluster) SetMachine(id int, m Machine) {
	c.machines[id] = m
}

// MachineAt returns the machine attached to slot id, or nil.
func (c *Cluster) MachineAt(id int) Machine { return c.machines[id] }

// Schedule marks machine id as active for the next round even if it
// receives no messages (idempotent per round). Used to bootstrap computation.
func (c *Cluster) Schedule(id int) {
	if !c.inPending[id] {
		c.inPending[id] = true
		c.pending = append(c.pending, id)
	}
}

// Send enqueues a message for delivery at the start of the next round. It is
// intended for injecting external input (e.g. a graph update) into the
// cluster; machines use Ctx.Send instead. From may be -1 for "external".
// A destination outside the cluster is a model violation (counted, fatal
// in strict mode) and the message is dropped; delivered words count
// toward the pair-communication distribution CommEntropy reports on.
func (c *Cluster) Send(msg Message) {
	if msg.Words <= 0 {
		msg.Words = 1
	}
	if msg.To < 0 || msg.To >= len(c.inboxes) {
		c.violation("external send to invalid machine %d", msg.To)
		return
	}
	c.stage(msg)
}

// Close releases the worker goroutines (Workers ≥ 2), which have all
// exited when it returns. A closed cluster must not Round again; Close is
// idempotent, and a cluster whose handler panicked is already closed.
func (c *Cluster) Close() { c.exec.close() }

// BeginMixed starts an accounting window covering updates writes and
// queries reads: every subsequent round is folded into it until EndMixed.
// Its whole point is to attribute each round to exactly one of the two
// halves (see MixedStats), and windows never nest or overlap — a nested
// one would silently replace the open window and discard its rounds — so
// opening one inside another panics. Within the window, waves are
// declared with BeginMixedWave/EndMixedWave, and the machines' answers
// collect into the window's table until Answers reads them. The window
// knows no tenants: a front door that does splits the window's rounds
// itself (the facade's Ingestor, by op share).
func (c *Cluster) BeginMixed(updates, queries int) {
	if c.currentMixed != nil {
		panic("mpc: BeginMixed inside an open window (close it with EndMixed first)")
	}
	c.answers = c.answers[:0]
	m := &c.mixed
	*m = MixedStats{
		Ops:     updates + queries,
		Updates: HalfStats{Ops: updates},
		Queries: HalfStats{Ops: queries},
		Waves:   m.Waves[:0],
	}
	c.currentMixed = m
}

// EndMixed closes the window and returns its aggregate. An open
// wave is a driver bug (its rounds would be misattributed), so it panics.
func (c *Cluster) EndMixed() MixedStats {
	if c.currentWave != nil {
		panic("mpc: EndMixed with an open wave (close it with EndMixedWave first)")
	}
	m := c.currentMixed
	c.currentMixed = nil
	if m == nil {
		return MixedStats{}
	}
	out := *m
	out.Waves = append([]WaveStats(nil), m.Waves...) // nil when no wave ran
	return out
}

// BeginMixedWave starts per-wave attribution inside an open mixed window:
// the next rounds execute the ops at the stream indices wave (nil means
// all of ops) concurrently, and the wave counts its own updates and
// reads from them. A wave without updates is a query-only wave; its
// rounds fold into the window's query half, while every other wave's
// rounds (the reads ride along) fold into the update half. Waves never
// nest. It returns the opened wave, its widths set.
func (c *Cluster) BeginMixedWave(ops []graph.Op, wave []int) WaveStats {
	if c.currentMixed == nil {
		panic("mpc: BeginMixedWave outside a mixed window")
	}
	if c.currentWave != nil {
		panic("mpc: BeginMixedWave inside an open wave (close it with EndMixedWave first)")
	}
	c.wave = WaveStats{}
	w := &c.wave
	n := len(ops)
	if wave != nil {
		n = len(wave)
	}
	for j := range n {
		i := j
		if wave != nil {
			i = wave[j]
		}
		if ops[i].IsQuery() {
			w.Queries++
		} else {
			w.Updates++
		}
	}
	c.currentWave = w
	return *w
}

// EndMixedWave finishes the current wave and records it on the open
// window's wave log.
func (c *Cluster) EndMixedWave() WaveStats {
	w := c.currentWave
	if w == nil {
		panic("mpc: EndMixedWave without an open wave")
	}
	m := c.currentMixed
	c.currentWave = nil
	m.Waves = append(m.Waves, *w)
	return *w
}

// Answers returns the answers the machines output (Ctx.Answer) since the
// last BeginMixed, one per read of ops in stream order: Results[j] answers
// the j-th op with IsQuery() true. A read is named by its position in
// ops. A read left unanswered, a read answered twice and an answer naming
// no read of ops are driver or protocol bugs, so each panics, naming the
// position.
func (c *Cluster) Answers(ops []graph.Op) graph.Results {
	slots, nq := c.slots[:0], 0
	for _, op := range ops {
		j := -1
		if op.IsQuery() {
			j, nq = nq, nq+1
		}
		slots = append(slots, j)
	}
	c.slots = slots
	res := make(graph.Results, nq)
	const answered = -2
	for _, a := range c.answers {
		if a.at < 0 || a.at >= len(ops) || slots[a.at] == -1 {
			panic(fmt.Sprintf("mpc: stray answer for stream position %d, which is no read of the window's %d ops", a.at, len(ops)))
		}
		if slots[a.at] == answered {
			panic(fmt.Sprintf("mpc: read %d (%v) answered twice", a.at, ops[a.at]))
		}
		res[slots[a.at]] = a.a
		slots[a.at] = answered
	}
	for i, j := range slots {
		if j >= 0 {
			panic(fmt.Sprintf("mpc: read %d (%v) produced no answer", i, ops[i]))
		}
	}
	return res
}

// Quiescent reports whether no machine has pending messages or scheduling,
// i.e. whether another Round would be a no-op.
func (c *Cluster) Quiescent() bool { return len(c.pending) == 0 }

// Round executes one synchronous round: delivers all pending messages,
// runs every active machine's handler through the worker pool,
// stages the messages they send for the next round, and folds the round
// into the open accounting window. It returns the round's statistics.
func (c *Cluster) Round() RoundStats {
	rs := c.beginRound()
	c.slab = growSlab(c.slab, len(c.active))
	c.exec.run(c.active, c.slab)
	c.settle()

	c.stats.Rounds++
	c.stats.Messages += rs.Messages
	c.stats.Words += rs.Words
	if m, w := c.currentMixed, c.currentWave; m != nil {
		// The per-wave attribution rule of MixedStats: query-only waves
		// feed the query half, everything else feeds the update half.
		if w != nil && w.Updates == 0 && w.Queries > 0 {
			m.Queries.Add(rs)
		} else {
			m.Updates.Add(rs)
		}
	}
	return rs
}

// Run executes rounds until the cluster is quiescent or maxRounds is
// reached, returning the number of rounds executed.
func (c *Cluster) Run(maxRounds int) int {
	n := 0
	for n < maxRounds && !c.Quiescent() {
		c.Round()
		n++
	}
	return n
}

// Drain executes rounds until the cluster is quiescent, panicking with the
// caller's context string — and the widths of the open wave, if any — if
// maxRounds is exhausted first, and returns the number of rounds executed.
// This is the standard run-to-quiescence guard the query paths share
// instead of fixed round budgets.
func (c *Cluster) Drain(maxRounds int, what string) int {
	n := c.Run(maxRounds)
	if !c.Quiescent() {
		if w := c.currentWave; w != nil {
			what = fmt.Sprintf("%s of %d updates + %d reads", what, w.Updates, w.Queries)
		}
		panic(fmt.Sprintf("%s did not quiesce within %d rounds", what, maxRounds))
	}
	return n
}

func (c *Cluster) violation(format string, args ...any) {
	c.stats.Violations++
	if c.cfg.Strict {
		panic(fmt.Sprintf("mpc: "+format, args...))
	}
}

// CommEntropy returns the Shannon entropy (in bits) of the normalized
// distribution of communicated words over ordered machine pairs, the metric
// proposed in §8 of the paper to quantify how evenly an algorithm spreads
// its communication. Higher is more uniform; an algorithm funnelling all
// traffic through a coordinator scores low.
//
// The summation runs over the volumes in sorted order: floating-point
// addition does not commute at the ulp, and map iteration order would
// make the last bits run- and worker-count-dependent, which the
// determinism rule — bit-identical Stats at every worker count — does not
// tolerate.
func (c *Cluster) CommEntropy() float64 {
	pairs := c.pairVolumes()
	total := 0
	volumes := make([]int, 0, len(pairs))
	for _, w := range pairs {
		total += w
		volumes = append(volumes, w)
	}
	if total == 0 {
		return 0
	}
	slices.Sort(volumes)
	h := 0.0
	for _, w := range volumes {
		p := float64(w) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// MaxPairWords returns the heaviest ordered machine pair's lifetime
// communication volume in words — the hot-pair companion to CommEntropy:
// entropy says how evenly traffic spreads, this says how tall the tallest
// spike is. Zero for a cluster that has communicated nothing.
func (c *Cluster) MaxPairWords() int {
	max := 0
	for _, w := range c.pairVolumes() {
		if w > max {
			max = w
		}
	}
	return max
}

// pairVolumes returns the lifetime volume of every ordered pair that has
// communicated: the unicast table with each sender's broadcast totals
// folded in, the same integers a table billed once per delivered copy
// would hold.
func (c *Cluster) pairVolumes() map[uint64]int {
	vol := maps.Clone(c.stats.pairWords)
	for from, b := range c.stats.bcastWords {
		for to := range c.machines {
			w := b[0]
			if to != from {
				w += b[1]
			}
			if w > 0 {
				vol[pairKey(from, to)] += w
			}
		}
	}
	return vol
}

// Ctx is the per-round execution context handed to a machine's handler.
type Ctx struct {
	cluster  *Cluster
	self     int
	round    int
	out      []Message
	schedule []int
	answers  []answer
}

// answer is one read's output: at is the read's position in the window's
// op stream.
type answer struct {
	at int
	a  graph.Answer
}

// Round returns the global round number.
func (ctx *Ctx) Round() int { return ctx.round }

// Machines returns µ for the cluster.
func (ctx *Ctx) Machines() int { return ctx.cluster.cfg.Machines }

// Send stages a message for delivery at the start of the next round. Words
// must reflect the payload size in machine words; zero is coerced to one.
func (ctx *Ctx) Send(to int, payload any, words int) {
	if words <= 0 {
		words = 1
	}
	ctx.out = append(ctx.out, Message{
		From: ctx.self, To: to, Payload: payload, Words: words,
		seq: len(ctx.out),
	})
}

// Broadcast sends the payload to every machine in the cluster (including
// self if includeSelf). It charges words per recipient, matching the
// model's accounting for a machine that transmits to all µ machines, and
// every recipient sees the copy at the position µ Sends in its place would
// have had.
//
// It costs the sender one outbox entry, which settle fans out (fanOut): a
// negative seq, ^s for the entry's sequence number s, marks it — no Send
// produces one, so an invalid unicast destination is never mistaken for it
// — and its To is the one machine it skips, −1 for none.
func (ctx *Ctx) Broadcast(payload any, words int, includeSelf bool) {
	if words <= 0 {
		words = 1
	}
	skip := -1
	if !includeSelf {
		skip = ctx.self
	}
	ctx.out = append(ctx.out, Message{
		From: ctx.self, To: skip, Payload: payload, Words: words,
		seq: ^len(ctx.out),
	})
}

// Schedule marks a machine active in the next round without sending data.
func (ctx *Ctx) Schedule(id int) {
	ctx.schedule = append(ctx.schedule, id)
}

// Answer outputs the answer to the read at stream position at of the open
// window (see Cluster.Answers). An answer is output, not state: it is
// neither sent nor held, so it bills no words and no memory.
func (ctx *Ctx) Answer(at int, a graph.Answer) {
	ctx.answers = append(ctx.answers, answer{at: at, a: a})
}
