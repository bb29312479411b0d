package mpc

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"
)

// fanMachine follows a per-machine random script for a fixed number of
// rounds: up to three sends a round, each a unicast, now and then one to an
// invalid machine, or a broadcast with or without self, some heavy enough
// to overflow the send cap. With loop set it writes each broadcast as the
// Sends it stands for.
type fanMachine struct {
	id, mu, rounds int
	rng            xorshift
	loop           bool
	got            []Message // every inbox as handed over, in order
	invalid        int       // unicasts to an invalid machine
}

func (m *fanMachine) HandleRound(ctx *Ctx, inbox []Message) {
	m.got = append(m.got, inbox...)
	if ctx.Round() >= m.rounds {
		return
	}
	for k := m.rng.next() % 4; k > 0; k-- {
		payload := int64(ctx.Round()*1000 + m.id*10 + int(k))
		words := int(m.rng.next() % 12) // 0 is coerced to 1; 12·µ words overflow S
		switch r := m.rng.next() % 8; {
		case r < 4:
			self := r < 2
			if !m.loop {
				ctx.Broadcast(payload, words, self)
				continue
			}
			for to := 0; to < m.mu; to++ {
				if to != m.id || self {
					ctx.Send(to, payload, words)
				}
			}
		case r == 4:
			m.invalid++
			ctx.Send([]int{-1, m.mu, -1 - m.mu}[m.rng.next()%3], payload, words)
		default:
			ctx.Send(int(m.rng.next()%uint64(m.mu)), payload, words)
		}
	}
}

// fanRun is everything observable about one run of the fan script.
type fanRun struct {
	rounds     []RoundStats
	inboxes    [][]Message // per machine, seq cleared
	violations int
	invalid    int
	pairs      map[uint64]int
	entropy    float64
	maxPair    int
}

func runFan(workers int, loop bool) fanRun {
	const mu, rounds = 9, 40
	c := NewCluster(Config{Machines: mu, MemWords: 64, Workers: workers})
	defer c.Close()
	ms := make([]*fanMachine, mu)
	for i := range ms {
		ms[i] = &fanMachine{id: i, mu: mu, rounds: rounds, loop: loop, rng: xorshift(uint64(i)*0x9e3779b97f4a7c15 + 3)}
		c.SetMachine(i, ms[i])
		c.Schedule(i)
	}
	var r fanRun
	for !c.Quiescent() {
		r.rounds = append(r.rounds, c.Round())
	}
	for _, m := range ms {
		for i := range m.got {
			m.got[i].seq = 0 // a broadcast's copies share one; the Sends count up
		}
		r.inboxes = append(r.inboxes, m.got)
		r.invalid += m.invalid
	}
	r.violations = c.Stats().Violations
	r.pairs, r.entropy, r.maxPair = c.pairVolumes(), c.CommEntropy(), c.MaxPairWords()
	return r
}

// TestBroadcastEqualsSends: a Broadcast is one outbox entry that settle fans
// out and bills once, and it must be indistinguishable from the µ or µ − 1
// Sends it stands for — the same inboxes in the same order, the same
// RoundStats, the same violations (a broadcast overflowing the send cap
// counts its words once per recipient), and the same folded pair volumes,
// hence CommEntropy and MaxPairWords — at every worker count.
func TestBroadcastEqualsSends(t *testing.T) {
	want := runFan(1, true)
	if want.violations <= want.invalid || want.invalid == 0 {
		t.Fatalf("script raised %d violations with %d invalid sends: it must overflow the send cap too", want.violations, want.invalid)
	}
	for _, w := range workerCounts(9) {
		for _, loop := range []bool{false, true} {
			got := runFan(w, loop)
			if !slices.Equal(got.rounds, want.rounds) {
				t.Fatalf("workers=%d loop=%v: round stats %v, want %v", w, loop, got.rounds, want.rounds)
			}
			for id := range want.inboxes {
				if !slices.Equal(got.inboxes[id], want.inboxes[id]) {
					t.Fatalf("workers=%d loop=%v: machine %d was handed %v, want %v", w, loop, id, got.inboxes[id], want.inboxes[id])
				}
			}
			if got.violations != want.violations {
				t.Fatalf("workers=%d loop=%v: %d violations, want %d", w, loop, got.violations, want.violations)
			}
			if !maps.Equal(got.pairs, want.pairs) || got.entropy != want.entropy || got.maxPair != want.maxPair {
				t.Fatalf("workers=%d loop=%v: pair accounting %d pairs/%v/%d, want %d/%v/%d", w, loop,
					len(got.pairs), got.entropy, got.maxPair, len(want.pairs), want.entropy, want.maxPair)
			}
		}
	}
}

// TestSortInboxMatchesStable: on random inboxes — handler output staged in
// (From, seq) order as settle stages it, then external From −1 messages
// appended after it as Cluster.Send does between rounds, or fully random
// senders with seq ties — sortInbox's order equals sort.SliceStable's, on
// both sides of the insertion-sort cut-off.
func TestSortInboxMatchesStable(t *testing.T) {
	rng := xorshift(17)
	for trial := 0; trial < 3000; trial++ {
		n := int(rng.next() % 80)
		inbox := make([]Message, n)
		if trial%2 == 0 {
			from, seq := 0, 0
			ext := int(rng.next() % 4) // trailing external messages
			for i := range inbox {
				if i >= n-ext {
					inbox[i] = Message{From: -1}
				} else {
					if rng.next()%3 == 0 {
						from, seq = from+1+int(rng.next()%3), 0
					}
					seq += int(rng.next() % 2) // 0: a tie
					inbox[i] = Message{From: from, seq: seq}
				}
			}
		} else {
			for i := range inbox {
				inbox[i] = Message{From: int(rng.next()%5) - 1, seq: int(rng.next() % 4)}
			}
		}
		for i := range inbox {
			inbox[i].Payload = i
		}
		want := slices.Clone(inbox)
		sort.SliceStable(want, func(a, b int) bool { return msgLess(want[a], want[b]) })
		sortInbox(inbox)
		for i := range want {
			if inbox[i].Payload != want[i].Payload {
				t.Fatalf("trial %d (n = %d): position %d holds message %v, sort.SliceStable puts %v there",
					trial, n, i, inbox[i].Payload, want[i].Payload)
			}
		}
	}
}

// scatterMachine is §5's scatter/gather shape: machine 0 broadcasts words
// to every machine, itself included, in every round its inbox holds no
// broadcast, and every machine answers each broadcast with one word to
// machine 0. Payloads are boxed once, so the machines allocate nothing.
type scatterMachine struct{ id, words int }

var scatter, gather any = new(int), new(int)

func (m *scatterMachine) HandleRound(ctx *Ctx, inbox []Message) {
	scattered := false
	for _, msg := range inbox {
		if msg.Payload == scatter {
			ctx.Send(0, gather, 1)
			scattered = true
		}
	}
	if m.id == 0 && !scattered {
		ctx.Broadcast(scatter, m.words, true)
	}
}

func newScatterCluster(mu, workers int) *Cluster {
	c := NewCluster(Config{Machines: mu, MemWords: 1 << 16, Workers: workers})
	for i := 0; i < mu; i++ {
		c.SetMachine(i, &scatterMachine{id: i, words: 4})
	}
	c.Schedule(0)
	return c
}

// BenchmarkBroadcastRound measures a round of the scatter/gather cascade at
// µ = 147 (cc-uniform's cluster): one machine broadcasts 4 words, every
// machine replies, so rounds alternate between one sender fanning out to µ
// inboxes and µ senders converging on one. It is the round engine's cost of
// a §5 broadcast, apart from any handler work, inline and over four
// shards.
func BenchmarkBroadcastRound(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			c := newScatterCluster(147, w)
			defer c.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Round()
			}
		})
	}
}
