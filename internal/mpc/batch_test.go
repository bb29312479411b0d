package mpc

import "testing"

type bounceMachine struct{}

func (bounceMachine) HandleRound(ctx *Ctx, inbox []Message) {
	for _, m := range inbox {
		if m.Payload == "ping" {
			ctx.Send((m.To+1)%ctx.Machines(), "pong", 1)
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

	c.BeginMixed(3, 0, nil)
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
// scheduling rounds outside waves belong to the window only, and the wave
// discipline (waves only inside windows, never nested, closed before
// EndMixed) is enforced by panics.
func TestWaveAccounting(t *testing.T) {
	c := NewCluster(Config{Machines: 4, MemWords: 64})
	for i := 0; i < 4; i++ {
		c.SetMachine(i, bounceMachine{})
	}

	c.BeginMixed(5, 0, nil)
	c.BeginMixedWave(3, 0, nil)
	c.Send(Message{From: -1, To: 0, Payload: "ping", Words: 1})
	c.Run(8)
	w1 := c.EndMixedWave()
	c.Send(Message{From: -1, To: 1, Payload: "ping", Words: 1}) // scheduling traffic outside any wave
	c.Run(8)
	c.BeginMixedWave(2, 0, nil)
	c.Send(Message{From: -1, To: 2, Payload: "ping", Words: 1})
	c.Run(8)
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
	if m.Waves[0].Rounds == 0 || m.Waves[1].Rounds == 0 {
		t.Fatalf("wave rounds empty: %+v", m.Waves)
	}
	if sum := m.Waves[0].Rounds + m.Waves[1].Rounds; sum >= m.Updates.Rounds {
		t.Fatalf("wave rounds %d should undercount window rounds %d (scheduling rounds are window-only)", sum, m.Updates.Rounds)
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("BeginMixedWave outside window", func() { c.BeginMixedWave(1, 0, nil) })
	c.BeginMixed(1, 0, nil)
	c.BeginMixedWave(1, 0, nil)
	mustPanic("nested BeginMixedWave", func() { c.BeginMixedWave(1, 0, nil) })
	mustPanic("EndMixed with open wave", func() { c.EndMixed() })
	c.EndMixedWave()
	mustPanic("EndMixedWave without wave", func() { c.EndMixedWave() })
	c.EndMixed()
}
