package mpc

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// echoMachine forwards every received payload to a fixed target.
type echoMachine struct {
	target int
	seen   []any
}

func (e *echoMachine) HandleRound(ctx *Ctx, inbox []Message) {
	for _, m := range inbox {
		e.seen = append(e.seen, m.Payload)
		if e.target >= 0 {
			ctx.Send(e.target, m.Payload, m.Words)
		}
	}
}

func TestAutoConfig(t *testing.T) {
	for _, n := range []int{1, 10, 100, 10_000, 1_000_000} {
		cfg := Auto(n, 4)
		if cfg.MemWords < 16 {
			t.Fatalf("Auto(%d): S=%d too small", n, cfg.MemWords)
		}
		if cfg.Machines*cfg.MemWords < n {
			t.Fatalf("Auto(%d): total memory %d < input", n, cfg.Machines*cfg.MemWords)
		}
		// S should be Θ(√n): within constant factors for large n.
		if n >= 10_000 {
			root := math.Sqrt(float64(n))
			if float64(cfg.MemWords) < root || float64(cfg.MemWords) > 16*root {
				t.Fatalf("Auto(%d): S=%d not Θ(√n)=%.0f", n, cfg.MemWords, root)
			}
		}
	}
}

func TestRoundDeliversAndCounts(t *testing.T) {
	c := NewCluster(Config{Machines: 4, MemWords: 64})
	m0 := &echoMachine{target: 1}
	m1 := &echoMachine{target: -1}
	c.SetMachine(0, m0)
	c.SetMachine(1, m1)

	c.Send(Message{From: -1, To: 0, Payload: "hello", Words: 3})
	rs := c.Round()
	if rs.Active != 1 || rs.Words != 3 || rs.Messages != 1 {
		t.Fatalf("round 1 stats = %+v, want active=1 words=3 msgs=1", rs)
	}
	rs = c.Round()
	if rs.Active != 1 || rs.Words != 3 {
		t.Fatalf("round 2 stats = %+v, want active=1 words=3", rs)
	}
	if len(m1.seen) != 1 || m1.seen[0] != "hello" {
		t.Fatalf("machine 1 saw %v", m1.seen)
	}
	if !c.Quiescent() {
		t.Fatal("cluster should be quiescent after delivery chain ends")
	}
	if got := c.Stats().Rounds; got != 2 {
		t.Fatalf("total rounds = %d, want 2", got)
	}
}

func TestUpdateAccounting(t *testing.T) {
	c := NewCluster(Config{Machines: 3, MemWords: 64})
	c.SetMachine(0, &echoMachine{target: 1})
	c.SetMachine(1, &echoMachine{target: 2})
	c.SetMachine(2, &echoMachine{target: -1})

	// A wave-free window of one update: how the drivers outside the op
	// pipeline bill. Every round lands on the update half.
	c.BeginMixed(1, 0)
	c.Send(Message{To: 0, Payload: 1, Words: 2})
	c.Run(100)
	m := c.EndMixed()
	u := m.Updates
	if u.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3 (chain 0->1->2)", u.Rounds)
	}
	if u.Ops != 1 || u.MaxActive != 1 || u.MaxWords != 2 {
		t.Fatalf("update stats = %+v", u)
	}
	if u.SumActive != 3 || u.SumWords != 6 {
		t.Fatalf("update sums = %+v, want 3 active and 6 words over the chain", u)
	}
	if m.Queries != (HalfStats{}) || len(m.Waves) != 0 || m.Rounds() != u.Rounds {
		t.Fatalf("wave-free update window billed something besides its update half: %+v", m)
	}
	// The window is returned, not retained: a second EndMixed has nothing.
	if z := c.EndMixed(); !z.Equal(MixedStats{}) {
		t.Fatalf("EndMixed without BeginMixed = %+v", z)
	}
}

// fanout broadcasts once when scheduled.
type fanout struct{ words int }

func (f *fanout) HandleRound(ctx *Ctx, inbox []Message) {
	if ctx.Round() == 0 {
		ctx.Broadcast("x", f.words, false)
	}
}

func TestBroadcastActivatesAll(t *testing.T) {
	const mu = 8
	c := NewCluster(Config{Machines: mu, MemWords: 64})
	c.SetMachine(0, &fanout{words: 1})
	for i := 1; i < mu; i++ {
		c.SetMachine(i, &echoMachine{target: -1})
	}
	c.Schedule(0)
	c.Round() // broadcast staged
	rs := c.Round()
	if rs.Active != mu-1 {
		t.Fatalf("active = %d, want %d", rs.Active, mu-1)
	}
	if rs.Words != mu-1 {
		t.Fatalf("words = %d, want %d", rs.Words, mu-1)
	}
}

func TestStrictIOCapPanics(t *testing.T) {
	c := NewCluster(Config{Machines: 2, MemWords: 4, Strict: true})
	c.SetMachine(0, &echoMachine{target: 1})
	c.Send(Message{To: 0, Payload: "big", Words: 10})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on I/O cap violation in strict mode")
		}
	}()
	c.Round()
}

// TestViolationCountedNonStrict: a 10-word message into a 4-word machine
// that echoes it breaks the cap twice in one round, once on receipt and
// once on the send.
func TestViolationCountedNonStrict(t *testing.T) {
	c := NewCluster(Config{Machines: 2, MemWords: 4})
	c.SetMachine(0, &echoMachine{target: 1})
	c.Send(Message{To: 0, Payload: "big", Words: 10})
	c.Round()
	if c.Stats().Violations != 2 {
		t.Fatalf("violations = %d, want 2 (receive and send)", c.Stats().Violations)
	}
}

// TestReceiveCapEnforced: two machines each send 3 words to a third with
// S = 4. No machine sends over S, but the third receives 6 words, which
// is exactly one violation at every worker count, and under Strict a
// panic that names the receive.
func TestReceiveCapEnforced(t *testing.T) {
	run := func(strict bool, workers int) int {
		c := NewCluster(Config{Machines: 3, MemWords: 4, Strict: strict, Workers: workers})
		defer c.Close()
		c.SetMachine(0, &echoMachine{target: 2})
		c.SetMachine(1, &echoMachine{target: 2})
		c.SetMachine(2, &echoMachine{target: -1})
		c.Send(Message{To: 0, Payload: "a", Words: 3})
		c.Send(Message{To: 1, Payload: "b", Words: 3})
		c.Round() // 0 and 1 each forward 3 words to 2
		c.Round() // 2 receives 6
		return c.Stats().Violations
	}
	for _, w := range []int{1, 4} {
		if v := run(false, w); v != 1 {
			t.Fatalf("workers=%d: violations = %d, want exactly 1 (the receive)", w, v)
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "machine 2 received 6 words") {
					t.Fatalf("workers=%d: strict panic %q does not name the receive", w, msg)
				}
			}()
			run(true, w)
		}()
	}
}

type memHog struct{ words int }

func (m *memHog) HandleRound(ctx *Ctx, inbox []Message) {}
func (m *memHog) MemWords() int                         { return m.words }

func TestMemoryCapEnforced(t *testing.T) {
	c := NewCluster(Config{Machines: 1, MemWords: 8})
	c.SetMachine(0, &memHog{words: 9})
	c.Schedule(0)
	c.Round()
	if c.Stats().Violations != 1 {
		t.Fatalf("violations = %d, want 1", c.Stats().Violations)
	}
	if c.Stats().PeakMemWords != 9 {
		t.Fatalf("peak = %d, want 9", c.Stats().PeakMemWords)
	}
}

func TestCommEntropyCoordinatorVsUniform(t *testing.T) {
	// Coordinator pattern: everything flows 1->0.
	coord := NewCluster(Config{Machines: 8, MemWords: 1024})
	coord.SetMachine(1, &echoMachine{target: 0})
	coord.SetMachine(0, &echoMachine{target: -1})
	for i := 0; i < 20; i++ {
		coord.Send(Message{To: 1, Payload: i, Words: 1})
		coord.Run(10)
	}

	// Uniform pattern: a ring where each machine forwards to the next.
	ring := NewCluster(Config{Machines: 8, MemWords: 1024})
	for i := 0; i < 8; i++ {
		ring.SetMachine(i, &echoMachine{target: (i + 1) % 8})
	}
	ring.Send(Message{To: 0, Payload: 0, Words: 1})
	ring.Run(40)

	hc, hr := coord.CommEntropy(), ring.CommEntropy()
	if hc >= hr {
		t.Fatalf("coordinator entropy %.3f should be below ring entropy %.3f", hc, hr)
	}
}

// TestDeterministicInboxOrder checks that handlers observe messages sorted
// by (sender, sequence) regardless of send interleaving.
type orderChecker struct {
	t    *testing.T
	fail *atomic.Bool
}

func (o *orderChecker) HandleRound(ctx *Ctx, inbox []Message) {
	last := -1
	lastSeq := -1
	for _, m := range inbox {
		if m.From < last || (m.From == last && m.seq < lastSeq) {
			o.fail.Store(true)
		}
		last, lastSeq = m.From, m.seq
	}
}

type multiSender struct{ n int }

func (s *multiSender) HandleRound(ctx *Ctx, inbox []Message) {
	for i := 0; i < s.n; i++ {
		ctx.Send(0, i, 1)
	}
}

func TestDeterministicInboxOrder(t *testing.T) {
	var fail atomic.Bool
	c := NewCluster(Config{Machines: 5, MemWords: 1024})
	c.SetMachine(0, &orderChecker{t: t, fail: &fail})
	for i := 1; i < 5; i++ {
		c.SetMachine(i, &multiSender{n: 5})
		c.Schedule(i)
	}
	c.Round()
	c.Round()
	if fail.Load() {
		t.Fatal("inbox order not deterministic")
	}
}

func TestQuickUpdateStatsAddMonotone(t *testing.T) {
	f := func(a, b uint8, w uint16) bool {
		var u HalfStats
		r1 := RoundStats{Active: int(a), Words: int(w)}
		r2 := RoundStats{Active: int(b), Words: int(w) / 2}
		u.Add(r1)
		u.Add(r2)
		maxA := int(a)
		if int(b) > maxA {
			maxA = int(b)
		}
		return u.Rounds == 2 &&
			u.MaxActive == maxA &&
			u.SumActive == int(a)+int(b) &&
			u.SumWords == int(w)+int(w)/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunStopsAtMaxRounds(t *testing.T) {
	// A self-perpetuating machine: always messages itself.
	c := NewCluster(Config{Machines: 1, MemWords: 64})
	c.SetMachine(0, machineFunc(func(ctx *Ctx, inbox []Message) { ctx.Send(0, nil, 1) }))
	c.Schedule(0)
	if n := c.Run(7); n != 7 {
		t.Fatalf("ran %d rounds, want 7", n)
	}
}

// machineFunc adapts a function to the Machine interface.
type machineFunc func(ctx *Ctx, inbox []Message)

func (f machineFunc) HandleRound(ctx *Ctx, inbox []Message) { f(ctx, inbox) }
