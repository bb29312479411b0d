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

	c.BeginMixed(2, 3, nil)

	// Wave 1: one update plus two riding reads — update half.
	c.BeginMixedWave(1, 2, nil)
	c.Send(Message{From: -1, To: 0, Payload: "ping", Words: 1})
	c.Run(8)
	w1 := c.EndMixedWave()

	// Out-of-wave scheduling round — update half.
	c.Send(Message{From: -1, To: 1, Payload: "ping", Words: 1})
	c.Run(8)

	// Wave 2: query-only — query half.
	c.BeginMixedWave(0, 1, nil)
	c.Send(Message{From: -1, To: 2, Payload: "ping", Words: 1})
	c.Run(8)
	w2 := c.EndMixedWave()

	// Wave 3: one more update, no reads — update half.
	c.BeginMixedWave(1, 0, nil)
	c.Send(Message{From: -1, To: 3, Payload: "ping", Words: 1})
	c.Run(8)
	w3 := c.EndMixedWave()

	m := c.EndMixed()

	if m.Ops != 5 || m.Updates.Updates != 2 || m.Queries.Queries != 3 {
		t.Fatalf("window shape wrong: %+v", m)
	}
	if len(m.Waves) != 3 || m.Waves[0] != w1 || m.Waves[1] != w2 || m.Waves[2] != w3 {
		t.Fatalf("wave log wrong: %+v", m.Waves)
	}
	if len(m.Updates.Waves) != 2 || m.Updates.Waves[0] != w1 || m.Updates.Waves[1] != w3 {
		t.Fatalf("update half must log exactly the update-bearing waves: %+v", m.Updates.Waves)
	}
	if m.Queries.Rounds != w2.Rounds {
		t.Fatalf("query half rounds %d, want query-only wave's %d", m.Queries.Rounds, w2.Rounds)
	}
	if m.Updates.Rounds+m.Queries.Rounds != m.Rounds() {
		t.Fatalf("halves do not partition the window: %d + %d != %d",
			m.Updates.Rounds, m.Queries.Rounds, m.Rounds())
	}
	if m.Updates.Rounds <= w1.Rounds+w3.Rounds {
		t.Fatalf("out-of-wave round missing from the update half: %d vs waves %d",
			m.Updates.Rounds, w1.Rounds+w3.Rounds)
	}
	if want := float64(m.Rounds()) / 5; m.RoundsPerOp() != want {
		t.Fatalf("RoundsPerOp %.3f, want %.3f", m.RoundsPerOp(), want)
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

	c.BeginMixed(1, 0, nil)
	c.BeginMixedWave(1, 0, nil)
	c.Send(Message{From: -1, To: 0, Payload: "ping", Words: 1})
	c.Run(8)
	c.EndMixedWave()
	m := c.EndMixed()
	if m.Queries != (QueryStats{}) {
		t.Fatalf("all-update window charged its query half: %+v", m.Queries)
	}
	if m.Updates.Rounds == 0 || len(m.Updates.Waves) != 1 {
		t.Fatalf("all-update window missing its update half: %+v", m.Updates)
	}

	c.BeginMixed(0, 2, nil)
	c.BeginMixedWave(0, 2, nil)
	c.Send(Message{From: -1, To: 1, Payload: "ping", Words: 1})
	c.Run(8)
	c.EndMixedWave()
	m = c.EndMixed()
	if !m.Updates.Equal(BatchStats{}) {
		t.Fatalf("all-query window charged its update half: %+v", m.Updates)
	}
	if m.Queries.Queries != 2 || m.Queries.Rounds == 0 {
		t.Fatalf("all-query window missing its query half: %+v", m.Queries)
	}
}

// TestMixedWindowExclusivity pins that the two window kinds — the
// pipeline's mixed window and the plain update window — refuse to nest
// with each other and with themselves, so no round is ever billed twice
// or to a window that silently replaced the one it belonged to.
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

	fresh := func() *Cluster { return NewCluster(Config{Machines: 1, MemWords: 16}) }

	c := fresh()
	c.BeginMixed(1, 1, nil)
	wantPanic("BeginUpdate inside mixed", func() { c.BeginUpdate() })
	wantPanic("BeginMixed inside mixed", func() { c.BeginMixed(1, 1, nil) })

	c4 := fresh()
	c4.SetMachine(0, bounceMachine{})
	c4.BeginUpdate()
	wantPanic("BeginMixed inside update", func() { c4.BeginMixed(1, 1, nil) })
	// A nested BeginUpdate used to replace the open window, silently
	// discarding the outer window's rounds.
	c4.Send(Message{From: -1, To: 0, Payload: "ping", Words: 1})
	c4.Run(8)
	wantPanic("BeginUpdate inside update", func() { c4.BeginUpdate() })
	if u := c4.EndUpdate(); u.Rounds == 0 {
		t.Fatal("refused nested BeginUpdate still discarded the outer window's rounds")
	}

	c5 := fresh()
	wantPanic("BeginMixedWave outside mixed", func() { c5.BeginMixedWave(1, 0, nil) })
	c5.BeginMixed(1, 0, nil)
	c5.BeginMixedWave(1, 0, nil)
	wantPanic("nested mixed wave", func() { c5.BeginMixedWave(1, 0, nil) })
	wantPanic("EndMixed with open wave", func() { c5.EndMixed() })
	c5.EndMixedWave()
	wantPanic("EndMixedWave without wave", func() { c5.EndMixedWave() })
	c5.EndMixed()

	// A closed mixed window releases the cluster for the other kind.
	c5.BeginUpdate()
	c5.EndUpdate()
}
