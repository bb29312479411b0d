package mpc

import (
	"math"
	"math/big"
	"testing"
)

// xorshift is the test-local deterministic RNG (math/rand would work too;
// this keeps the property test's runs trivially identical).
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// TestSteadyStateAllocsPerRound pins the allocation bill of a
// steady-state Round with every machine active and of the scatter/gather
// cascade, whose rounds alternate between one broadcast fanned out to
// every inbox and every machine replying to one. The round's scratch
// (active set, Ctx slab, inbox backing arrays) is fully recycled and the
// workers are long-lived, so the budget is zero at every worker count.
func TestSteadyStateAllocsPerRound(t *testing.T) {
	const mu = 64
	for _, bc := range []struct {
		name  string
		build func(mu, workers int) *Cluster
	}{{"ping", newPingCluster}, {"broadcast", newScatterCluster}} {
		for _, w := range workerCounts(mu) {
			c := bc.build(mu, w)
			for i := 0; i < 64; i++ { // warm the pools past the growth phase
				c.Round()
			}
			if avg := testing.AllocsPerRun(100, func() { c.Round() }); avg > 0.5 {
				t.Errorf("%s workers=%d: %.2f allocs/round at steady state, budget 0.5", bc.name, w, avg)
			}
			c.Close()
		}
	}
}

// TestSteadyStateAllocsPerAnswer pins that answers ride the pooled round:
// at steady state a sharded window whose machines answer k reads
// allocates what every one-wave window does — the copy of its wave log
// EndMixed returns; the open window and wave are the Cluster's own — plus
// the slice Answers returns, and nothing per answer. When the window and
// the wave were allocated per opening, the budget was 4.
func TestSteadyStateAllocsPerAnswer(t *testing.T) {
	const mu, k = 16, 256
	c := NewCluster(Config{Machines: mu, MemWords: 1 << 16, Workers: 4})
	defer c.Close()
	for i := 0; i < mu; i++ {
		c.SetMachine(i, answerer)
	}
	ops := waveOps(0, k)
	payloads := make([]any, k) // boxed once: the window under test allocates none
	for i := range payloads {
		payloads[i] = i
	}
	window := func() {
		c.BeginMixed(0, k)
		c.BeginMixedWave(ops, nil)
		for i, p := range payloads {
			c.Send(Message{From: -1, To: i % mu, Payload: p, Words: 1})
		}
		c.Drain(2, "answerers")
		c.EndMixedWave()
		c.EndMixed()
		c.Answers(ops)
	}
	for i := 0; i < 8; i++ { // warm the pools past the growth phase
		window()
	}
	if avg := testing.AllocsPerRun(50, window); avg > 2 {
		t.Errorf("%.2f allocs per window of %d answered reads, budget 2", avg, k)
	}
}

// chaosMachine drives the active-set property test: each activation sends
// to 0–3 deterministically random targets and now and then broadcasts
// (with or without self), logging every recipient so the test can
// maintain the reference pending set. All state is per-machine, so
// concurrent handler execution stays deterministic.
type chaosMachine struct {
	id, mu int
	rng    xorshift
	sent   []int
}

func (m *chaosMachine) HandleRound(ctx *Ctx, inbox []Message) {
	m.sent = m.sent[:0]
	for k := m.rng.next() % 4; k > 0; k-- {
		to := int(m.rng.next() % uint64(m.mu))
		ctx.Send(to, int64(to), 1)
		m.sent = append(m.sent, to)
	}
	if r := m.rng.next() % 32; r < 2 {
		ctx.Broadcast(int64(-1), 2, r == 0)
		for to := 0; to < m.mu; to++ {
			if to != m.id || r == 0 {
				m.sent = append(m.sent, to)
			}
		}
	}
}

// TestActiveSetInvariantUnderChaos: under randomized Send/Schedule
// interleavings — external injections and schedules between rounds plus
// machines sending at random — the active set handed to settle is
// strictly ascending, duplicate-free, in range, and exactly the set of
// machines with a pending message or schedule bit, at every worker count.
// This is the invariant the sparse pending set must preserve (the old
// O(µ) scan got it for free) and the one settle's deterministic
// ascending-order merge depends on.
func TestActiveSetInvariantUnderChaos(t *testing.T) {
	const mu = 33
	for _, w := range workerCounts(mu) {
		c := NewCluster(Config{Machines: mu, MemWords: 1 << 16, Workers: w})
		ms := make([]*chaosMachine, mu)
		for i := range ms {
			ms[i] = &chaosMachine{id: i, mu: mu, rng: xorshift(uint64(i)*0x9e3779b97f4a7c15 + 1)}
			c.SetMachine(i, ms[i])
		}
		var observed []int
		c.debugActive = func(active []int) {
			observed = append(observed[:0], active...)
		}

		drive := xorshift(42)
		expect := map[int]bool{}
		for step := 0; step < 300; step++ {
			for k := drive.next() % 3; k > 0; k-- {
				to := int(drive.next() % mu)
				c.Send(Message{From: -1, To: to, Payload: int64(step), Words: 1})
				expect[to] = true
			}
			if drive.next()%4 == 0 {
				id := int(drive.next() % mu)
				c.Schedule(id)
				expect[id] = true
			}
			if c.Quiescent() != (len(expect) == 0) {
				t.Fatalf("workers=%d step %d: Quiescent()=%v with %d expected pending",
					w, step, c.Quiescent(), len(expect))
			}
			if len(expect) == 0 {
				continue
			}
			observed = observed[:0]
			rs := c.Round()

			if len(observed) != len(expect) || rs.Active != len(observed) {
				t.Fatalf("workers=%d step %d: active set size %d (RoundStats %d), want %d",
					w, step, len(observed), rs.Active, len(expect))
			}
			for i, id := range observed {
				if id < 0 || id >= mu {
					t.Fatalf("workers=%d step %d: active id %d out of range", w, step, id)
				}
				if i > 0 && observed[i-1] >= id {
					t.Fatalf("workers=%d step %d: active set not strictly ascending at %d: %v",
						w, step, i, observed)
				}
				if !expect[id] {
					t.Fatalf("workers=%d step %d: machine %d active but never delivered/scheduled", w, step, id)
				}
			}

			// The next round's reference set: whatever the machines that
			// just ran sent to.
			clear(expect)
			for _, id := range observed {
				for _, to := range ms[id].sent {
					expect[to] = true
				}
			}
		}
		c.Close()
	}
}

// TestShardOfOverflowBoundary: shardOf is floor(id·nshards/µ) and must
// stay exact when the naive id*nshards product would overflow int —
// µ near MaxInt here stands in for the 32-bit case, where overflow
// starts at entirely realistic cluster sizes (µ·shards > 2³¹). Pinned
// against a big.Int oracle, alongside the graph.Chunk/SplitOps MaxInt
// boundary tests. The pool is constructed bare: shardOf reads only
// nshards and cfg.Machines, and a MaxInt cluster can't be allocated.
func TestShardOfOverflowBoundary(t *testing.T) {
	mk := func(machines, shards int) *workerPool {
		return &workerPool{c: &Cluster{cfg: Config{Machines: machines}}, nshards: shards}
	}
	want := func(id, shards, machines int) int {
		n := new(big.Int).Mul(big.NewInt(int64(id)), big.NewInt(int64(shards)))
		n.Quo(n, big.NewInt(int64(machines)))
		return int(n.Int64())
	}

	p := mk(math.MaxInt, 64)
	for _, id := range []int{0, 1, math.MaxInt / 64, math.MaxInt / 2, math.MaxInt - 2, math.MaxInt - 1} {
		got := p.shardOf(id)
		if w := want(id, 64, math.MaxInt); got != w {
			t.Errorf("shardOf(%d) with µ=MaxInt, 64 shards: got %d, want %d", id, got, w)
		}
		if got < 0 || got >= 64 {
			t.Errorf("shardOf(%d) = %d out of shard range [0,64)", id, got)
		}
	}

	// Where the naive product does not overflow, the mapping is unchanged:
	// contiguous blocks, monotone, full shard coverage.
	q := mk(1_000_003, 7)
	prev := 0
	for id := 0; id < 1_000_003; id += 997 {
		got := q.shardOf(id)
		if naive := id * 7 / 1_000_003; got != naive {
			t.Fatalf("shardOf(%d) = %d, naive formula says %d", id, got, naive)
		}
		if got < prev {
			t.Fatalf("shardOf not monotone at id %d: %d < %d", id, got, prev)
		}
		prev = got
	}
	if got := q.shardOf(1_000_002); got != 6 {
		t.Fatalf("last machine lands in shard %d, want 6", got)
	}
}

// TestMsgPoolPayloadClearing pins the payload-clearing rule: a retired
// inbox's consumed elements are zeroed before the backing array is
// banked (so the free-list pins no message payloads), and grab hands the
// banked array back out instead of growing from nil.
func TestMsgPoolPayloadClearing(t *testing.T) {
	var p msgPool
	payload := &struct{ x int }{1}
	ms := p.grab(nil, Message{From: 1, To: 2, Payload: payload, Words: 3})
	backing := ms
	if out := p.retire(ms); out != nil {
		t.Fatalf("retire returned %v, want nil", out)
	}
	if backing[0] != (Message{}) {
		t.Fatalf("retired element not zeroed: %+v still pins its payload", backing[0])
	}
	got := p.grab(nil, Message{To: 9, Words: 1})
	if &got[0] != &backing[0] {
		t.Fatal("grab allocated a fresh array instead of reusing the banked one")
	}
	if len(p.free) != 0 {
		t.Fatalf("free-list holds %d arrays after reuse, want 0", len(p.free))
	}
	// A never-grown slice has no backing array to bank.
	if out := p.retire(nil); out != nil || len(p.free) != 0 {
		t.Fatalf("retire(nil) banked something: out=%v free=%d", out, len(p.free))
	}
}

// recorder wraps a machine and keeps every message it was handed; once
// *mute is set it swallows its input, so the cluster drains.
type recorder struct {
	Machine
	got  []Message
	mute *bool
}

func (r *recorder) HandleRound(ctx *Ctx, inbox []Message) {
	r.got = append(r.got, inbox...)
	if !*r.mute {
		r.Machine.HandleRound(ctx, inbox)
	}
}

// TestPairTableMatchesMessages: on a random ping cluster fed external
// input (From −1, one out-of-range send dropped as a violation) the pair
// table — the unicast entries with the broadcast totals folded in —
// equals the per-pair volumes recomputed from the messages the machines
// were actually handed, at every worker count, and CommEntropy and
// MaxPairWords agree across them: stage and fanOut are the table's writers
// and bill exactly what they deliver.
func TestPairTableMatchesMessages(t *testing.T) {
	const mu = 19
	var entropy []float64
	var maxPair []int
	for _, w := range workerCounts(mu) {
		c := NewCluster(Config{Machines: mu, MemWords: 1 << 16, Workers: w})
		recs := make([]*recorder, mu)
		mute := false
		for i := range recs {
			recs[i] = &recorder{mute: &mute, Machine: &chaosMachine{id: i, mu: mu, rng: xorshift(uint64(i)*0x9e3779b97f4a7c15 + 1)}}
			c.SetMachine(i, recs[i])
		}
		drive := xorshift(99)
		for step := 0; step < 200; step++ {
			for k := drive.next() % 3; k > 0; k-- {
				c.Send(Message{From: -1, To: int(drive.next() % mu), Payload: int64(step), Words: int(drive.next()%5) + 1})
			}
			if step == 100 {
				c.Send(Message{From: -1, To: mu, Payload: int64(step), Words: 7})
			}
			c.Round()
		}
		mute = true // deliver what is staged, send nothing more
		c.Drain(2, "muted ping cluster")
		c.Close()
		if c.stats.Violations != 1 {
			t.Fatalf("workers=%d: %d violations, want the one out-of-range send", w, c.stats.Violations)
		}

		want := map[uint64]int{}
		for to, r := range recs {
			for _, m := range r.got {
				if m.To != to {
					t.Fatalf("workers=%d: machine %d was handed a message for %d", w, to, m.To)
				}
				want[pairKey(m.From, m.To)] += m.Words
			}
		}
		table := c.pairVolumes()
		if len(want) != len(table) {
			t.Fatalf("workers=%d: table has %d pairs, the delivered messages %d", w, len(table), len(want))
		}
		for k, w := range want {
			if table[k] != w {
				t.Fatalf("workers=%d: pair (%d→%d): table %d words, delivered %d", w, int32(k>>32), int32(k), table[k], w)
			}
		}
		if want[pairKey(-1, 0)] == 0 {
			t.Fatalf("workers=%d: no external traffic to machine 0 recorded under From −1", w)
		}
		var kinds [2]int
		for _, b := range c.stats.bcastWords {
			kinds[0], kinds[1] = max(kinds[0], b[0]), max(kinds[1], b[1])
		}
		if kinds[0] == 0 || kinds[1] == 0 {
			t.Fatalf("workers=%d: the script broadcast nothing with and without self", w)
		}
		entropy, maxPair = append(entropy, c.CommEntropy()), append(maxPair, c.MaxPairWords())
	}
	for i := range entropy {
		if entropy[i] != entropy[0] || maxPair[i] != maxPair[0] {
			t.Fatalf("pair accounting differs across worker counts %v: entropy %v, max pair %v",
				workerCounts(mu), entropy, maxPair)
		}
	}
}
