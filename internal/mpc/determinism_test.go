package mpc

import (
	"runtime"
	"slices"
	"testing"
)

// relayMachine forwards received integers along value-dependent routes, a
// branching, order-sensitive workload. Each machine emits at most budget
// messages in total, bounding the cascade while keeping plenty of
// cross-machine interleaving to expose scheduling nondeterminism.
type relayMachine struct {
	id     int
	mu     int
	budget int
	seen   []int64
}

func (r *relayMachine) HandleRound(ctx *Ctx, inbox []Message) {
	for _, m := range inbox {
		v, ok := m.Payload.(int64)
		if !ok {
			continue
		}
		r.seen = append(r.seen, v)
		if r.budget > 0 {
			r.budget--
			ctx.Send(int(v)%r.mu, v+1, 1)
		}
		if r.budget > 0 && v%3 == 0 {
			r.budget--
			ctx.Send(int(v*7)%r.mu, v+3, 1)
		}
	}
}

// relayFingerprint is the full observable state of one relay run — the
// answer trace plus every accounting figure the determinism rule pins,
// including the pair-communication distribution (CommEntropy and
// MaxPairWords).
type relayFingerprint struct {
	rounds, words, maxPair int
	entropy                float64
	trace                  []int64
}

// runRelay executes the branching relay at a worker count and returns its
// fingerprint.
func runRelay(workers int) relayFingerprint {
	const mu = 7
	c := NewCluster(Config{Machines: mu, MemWords: 1 << 20, Workers: workers})
	defer c.Close()
	ms := make([]*relayMachine, mu)
	for i := range ms {
		ms[i] = &relayMachine{id: i, mu: mu, budget: 40}
		c.SetMachine(i, ms[i])
	}
	c.Send(Message{To: 0, Payload: int64(1), Words: 1})
	c.Run(500)
	fp := relayFingerprint{
		rounds:  c.Stats().Rounds,
		words:   c.Stats().Words,
		maxPair: c.MaxPairWords(),
		entropy: c.CommEntropy(),
	}
	for _, m := range ms {
		fp.trace = append(fp.trace, int64(len(m.seen)))
		fp.trace = append(fp.trace, m.seen...)
	}
	return fp
}

// TestDeterministicAcrossWorkerCounts: the simulation must produce a
// bit-identical trace, rounds, words and pair accounting whatever the
// handler concurrency — inline, sharded over fewer workers than machines,
// one goroutine per machine, more workers than machines, GOMAXPROCS — the
// guarantee that makes every experiment in this repository reproducible.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	want := runRelay(1)
	for _, w := range append(workerCounts(7), 0, 2, 16, runtime.GOMAXPROCS(0)) {
		got := runRelay(w)
		if got.rounds != want.rounds || got.words != want.words {
			t.Fatalf("workers=%d: rounds/words %d/%d, inline %d/%d", w, got.rounds, got.words, want.rounds, want.words)
		}
		if got.maxPair != want.maxPair || got.entropy != want.entropy {
			t.Fatalf("workers=%d: pair accounting %d/%v, inline %d/%v", w, got.maxPair, got.entropy, want.maxPair, want.entropy)
		}
		if !slices.Equal(got.trace, want.trace) {
			t.Fatalf("workers=%d: trace %v, inline %v", w, got.trace, want.trace)
		}
	}
}

// relayRounds steps the branching relay round by round at a worker count
// and returns every round's statistics alongside the final fingerprint.
func relayRounds(workers int) ([]RoundStats, []int64) {
	const mu = 7
	c := NewCluster(Config{Machines: mu, MemWords: 1 << 20, Workers: workers})
	defer c.Close()
	ms := make([]*relayMachine, mu)
	for i := range ms {
		ms[i] = &relayMachine{id: i, mu: mu, budget: 40}
		c.SetMachine(i, ms[i])
	}
	c.Send(Message{To: 0, Payload: int64(1), Words: 1})
	var rounds []RoundStats
	for i := 0; i < 500 && !c.Quiescent(); i++ {
		rounds = append(rounds, c.Round())
	}
	var trace []int64
	for _, m := range ms {
		trace = append(trace, int64(len(m.seen)))
		trace = append(trace, m.seen...)
	}
	return rounds, trace
}

// TestParallelBackendMatchesSim: the sharded worker pool must reproduce
// the inline run (Workers 1, every handler on the driver, the serial
// reference) not only in its totals but round for round — the same
// active set size, words and messages in every round, and the same trace
// — at fewer workers than machines, one goroutine per machine, and more
// workers than machines.
func TestParallelBackendMatchesSim(t *testing.T) {
	wantRounds, wantTrace := relayRounds(1)
	if len(wantRounds) < 2 {
		t.Fatalf("relay ran %d rounds; the workload must cascade", len(wantRounds))
	}
	for _, w := range []int{2, 3, 7, 16} {
		gotRounds, gotTrace := relayRounds(w)
		if !slices.Equal(gotRounds, wantRounds) {
			t.Fatalf("workers=%d: per-round stats %v, inline %v", w, gotRounds, wantRounds)
		}
		if !slices.Equal(gotTrace, wantTrace) {
			t.Fatalf("workers=%d: trace %v, inline %v", w, gotTrace, wantTrace)
		}
	}
}

// TestWorkersDeterminismPerBackend: Workers=1 and Workers=GOMAXPROCS give
// bit-identical accounting on both workloads the round loop is tested
// with — the branching relay, whose active set changes every round, and
// the steady-state cascade, where every machine is active every round.
// This is the Config.Workers guarantee.
func TestWorkersDeterminismPerBackend(t *testing.T) {
	f1, fn := runRelay(1), runRelay(runtime.GOMAXPROCS(0))
	if f1.rounds != fn.rounds || f1.words != fn.words || f1.maxPair != fn.maxPair ||
		f1.entropy != fn.entropy || !slices.Equal(f1.trace, fn.trace) {
		t.Fatalf("relay: workers=1 got %+v, GOMAXPROCS got %+v", f1, fn)
	}
	ping := func(workers int) (Stats, int, float64) {
		c := newPingCluster(16, workers)
		defer c.Close()
		c.Run(20)
		return *c.Stats(), c.MaxPairWords(), c.CommEntropy()
	}
	s1, p1, h1 := ping(1)
	sn, pn, hn := ping(runtime.GOMAXPROCS(0))
	if s1.Rounds != sn.Rounds || s1.Words != sn.Words || s1.Messages != sn.Messages || p1 != pn || h1 != hn {
		t.Fatalf("cascade: workers=1 got %+v/%d/%v, GOMAXPROCS got %+v/%d/%v", s1, p1, h1, sn, pn, hn)
	}
}
