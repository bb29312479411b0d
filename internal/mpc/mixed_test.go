package mpc

import "testing"

// TestMixedAttribution pins the MixedStats attribution rule: rounds of
// update-bearing waves and out-of-wave scheduling rounds fold into the
// update half, rounds of query-only waves fold into the query half, and
// the halves always partition the window.
func TestMixedAttribution(t *testing.T) {
	c := NewCluster(Config{Machines: 4, MemWords: 64})
	for i := 0; i < 4; i++ {
		c.SetMachine(i, bounceMachine{})
	}

	c.BeginMixed(2, 3)

	// Wave 1: one update plus two riding reads — update half.
	c.BeginMixedWave(waveOps(1, 2), nil)
	c.Send(Message{From: -1, To: 0, Payload: "ping", Words: 1})
	r1 := c.Run(8)
	w1 := c.EndMixedWave()

	// Out-of-wave scheduling round — update half.
	c.Send(Message{From: -1, To: 1, Payload: "ping", Words: 1})
	rSched := c.Run(8)

	// Wave 2: query-only — query half.
	c.BeginMixedWave(waveOps(0, 1), nil)
	c.Send(Message{From: -1, To: 2, Payload: "ping", Words: 1})
	r2 := c.Run(8)
	w2 := c.EndMixedWave()

	// Wave 3: one more update, no reads — update half.
	c.BeginMixedWave(waveOps(1, 0), nil)
	c.Send(Message{From: -1, To: 3, Payload: "ping", Words: 1})
	r3 := c.Run(8)
	w3 := c.EndMixedWave()

	m := c.EndMixed()

	if m.Ops != 5 || m.Updates.Ops != 2 || m.Queries.Ops != 3 {
		t.Fatalf("window shape wrong: %+v", m)
	}
	if len(m.Waves) != 3 || m.Waves[0] != w1 || m.Waves[1] != w2 || m.Waves[2] != w3 {
		t.Fatalf("wave log wrong: %+v", m.Waves)
	}
	// The update half's waves are the log filtered by Updates > 0; their
	// rounds plus the out-of-wave round are the half.
	var updWaves []WaveStats
	for _, w := range m.Waves {
		if w.Updates > 0 {
			updWaves = append(updWaves, w)
		}
	}
	if len(updWaves) != 2 || updWaves[0] != w1 || updWaves[1] != w3 {
		t.Fatalf("update-bearing waves of the log: %+v, want w1 and w3", updWaves)
	}
	if m.Queries.Rounds != r2 {
		t.Fatalf("query half rounds %d, want query-only wave's %d", m.Queries.Rounds, r2)
	}
	if m.Updates.Rounds+m.Queries.Rounds != m.Rounds() {
		t.Fatalf("halves do not partition the window: %d + %d != %d",
			m.Updates.Rounds, m.Queries.Rounds, m.Rounds())
	}
	if rSched == 0 || m.Updates.Rounds != r1+rSched+r3 {
		t.Fatalf("update half rounds %d, want waves' %d + %d and the out-of-wave %d",
			m.Updates.Rounds, r1, r3, rSched)
	}
}

// TestMixedHalvesSkipEmpty pins that the half a window has no ops for
// stays empty: an all-update window charges nothing to its query half and
// an all-query window nothing to its update half, so a fold over returned
// windows never counts phantom rounds.
func TestMixedHalvesSkipEmpty(t *testing.T) {
	c := NewCluster(Config{Machines: 2, MemWords: 64})
	c.SetMachine(0, bounceMachine{})
	c.SetMachine(1, bounceMachine{})

	c.BeginMixed(1, 0)
	c.BeginMixedWave(waveOps(1, 0), nil)
	c.Send(Message{From: -1, To: 0, Payload: "ping", Words: 1})
	c.Run(8)
	c.EndMixedWave()
	m := c.EndMixed()
	if m.Queries != (HalfStats{}) {
		t.Fatalf("all-update window charged its query half: %+v", m.Queries)
	}
	if m.Updates.Rounds == 0 || len(m.Waves) != 1 || m.Waves[0].Updates != 1 {
		t.Fatalf("all-update window missing its update half: %+v", m.Updates)
	}

	c.BeginMixed(0, 2)
	c.BeginMixedWave(waveOps(0, 2), nil)
	c.Send(Message{From: -1, To: 1, Payload: "ping", Words: 1})
	c.Run(8)
	c.EndMixedWave()
	m = c.EndMixed()
	if m.Updates != (HalfStats{}) {
		t.Fatalf("all-query window charged its update half: %+v", m.Updates)
	}
	if m.Queries.Ops != 2 || m.Queries.Rounds == 0 {
		t.Fatalf("all-query window missing its query half: %+v", m.Queries)
	}
}

// TestMixedWindowExclusivity pins that windows and waves refuse to nest,
// so no round is ever billed twice or to a window that silently replaced
// the one it belonged to.
func TestMixedWindowExclusivity(t *testing.T) {
	wantPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}

	c := NewCluster(Config{Machines: 1, MemWords: 16})
	c.SetMachine(0, bounceMachine{})
	wantPanic("BeginMixedWave outside a window", func() { c.BeginMixedWave(waveOps(1, 0), nil) })
	c.BeginMixed(1, 0)
	// A nested Begin would replace the open window, silently discarding
	// the outer window's rounds.
	c.Send(Message{From: -1, To: 0, Payload: "ping", Words: 1})
	c.Run(8)
	wantPanic("BeginMixed inside a window", func() { c.BeginMixed(1, 1) })
	c.BeginMixedWave(waveOps(1, 0), nil)
	wantPanic("nested wave", func() { c.BeginMixedWave(waveOps(1, 0), nil) })
	wantPanic("EndMixed with open wave", func() { c.EndMixed() })
	c.EndMixedWave()
	wantPanic("EndMixedWave without wave", func() { c.EndMixedWave() })
	if m := c.EndMixed(); m.Updates.Rounds == 0 {
		t.Fatal("refused nested BeginMixed still discarded the outer window's rounds")
	}

	// A closed window releases the cluster for the next.
	c.BeginMixed(0, 1)
	c.EndMixed()
}
