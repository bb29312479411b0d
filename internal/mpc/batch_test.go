package mpc

import (
	"testing"

	"dmpc/internal/graph"
)

// bounceMachine answers a ping with a pong to the next machine of a
// four-machine cluster.
type bounceMachine struct{}

func (bounceMachine) HandleRound(ctx *Ctx, inbox []Message) {
	for _, m := range inbox {
		if m.Payload == "ping" {
			ctx.Send((m.To+1)%4, "pong", 1)
		}
	}
}

// TestBatchAccounting pins the update-half semantics of a read-free
// pipeline window: every round between BeginMixed and EndMixed folds into
// the update half, the amortized helper reports against the window's
// update count, the window is handed back to the caller, and rounds
// outside it fold into nothing.
func TestBatchAccounting(t *testing.T) {
	c := NewCluster(Config{Machines: 4, MemWords: 64})
	for i := 0; i < 4; i++ {
		c.SetMachine(i, bounceMachine{})
	}

	c.BeginMixed(3, 0)
	c.Send(Message{From: -1, To: 0, Payload: "ping", Words: 1})
	first := c.Run(8)
	c.Send(Message{From: -1, To: 1, Payload: "ping", Words: 1})
	c.Run(8)
	m := c.EndMixed()
	b := m.Updates

	if b.Ops != 3 || m.Ops != 3 {
		t.Fatalf("window covers %d updates / %d ops, want 3", b.Ops, m.Ops)
	}
	if b.Rounds <= first || b.Rounds != m.Rounds() {
		t.Fatalf("update half has %d rounds, window %d, first run alone %d", b.Rounds, m.Rounds(), first)
	}
	if want := float64(b.Rounds) / 3; b.RoundsPerOp() != want {
		t.Fatalf("RoundsPerOp %.3f, want %.3f", b.RoundsPerOp(), want)
	}
	if b.SumWords == 0 || b.MaxActive == 0 {
		t.Fatalf("batch word/active accounting empty: %+v", b)
	}
	if m.Queries != (HalfStats{}) {
		t.Fatalf("read-free window charged its query half: %+v", m.Queries)
	}

	// Rounds outside any window fold into the lifetime totals only.
	before := c.Stats().Rounds
	c.Send(Message{From: -1, To: 0, Payload: "ping", Words: 1})
	c.Run(8)
	if c.Stats().Rounds == before {
		t.Fatal("out-of-window rounds missing from the lifetime total")
	}
	if z := c.EndMixed(); !z.Equal(MixedStats{}) {
		t.Fatalf("EndMixed without BeginMixed = %+v", z)
	}
}

// TestWaveAccounting pins the per-wave attribution inside a pipeline
// window: rounds fold into the open wave and the window simultaneously,
// scheduling rounds outside waves belong to the window only, and a wave's
// widths are counted from the stream indices it names.
func TestWaveAccounting(t *testing.T) {
	c := NewCluster(Config{Machines: 4, MemWords: 64})
	for i := 0; i < 4; i++ {
		c.SetMachine(i, bounceMachine{})
	}

	ops := waveOps(5, 0)
	c.BeginMixed(5, 0)
	c.BeginMixedWave(ops, []int{0, 1, 2})
	c.Send(Message{From: -1, To: 0, Payload: "ping", Words: 1})
	r1 := c.Run(8)
	w1 := c.EndMixedWave()
	c.Send(Message{From: -1, To: 1, Payload: "ping", Words: 1}) // scheduling traffic outside any wave
	rSched := c.Run(8)
	c.BeginMixedWave(ops, []int{3, 4})
	c.Send(Message{From: -1, To: 2, Payload: "ping", Words: 1})
	r2 := c.Run(8)
	c.EndMixedWave()
	m := c.EndMixed()

	if len(m.Waves) != 2 {
		t.Fatalf("window recorded %d waves, want 2", len(m.Waves))
	}
	if m.Waves[0] != w1 {
		t.Fatalf("EndMixedWave returned %+v, window recorded %+v", w1, m.Waves[0])
	}
	if m.Waves[0].Updates != 3 || m.Waves[1].Updates != 2 {
		t.Fatalf("wave widths (%d,%d), want (3,2)", m.Waves[0].Updates, m.Waves[1].Updates)
	}
	if r1 == 0 || rSched == 0 || r2 == 0 || m.Updates.Rounds != r1+rSched+r2 {
		t.Fatalf("window rounds %d, want waves' %d + %d and the scheduling rounds' %d", m.Updates.Rounds, r1, r2, rSched)
	}
}

// waveOps is a stream of updates inserts followed by queries reads: the
// ops a test wave bills itself from.
func waveOps(updates, queries int) []graph.Op {
	ops := make([]graph.Op, 0, updates+queries)
	for i := 0; i < updates; i++ {
		ops = append(ops, graph.OpIns(0, 1, 1))
	}
	for i := 0; i < queries; i++ {
		ops = append(ops, graph.OpQMateOf(0))
	}
	return ops
}
