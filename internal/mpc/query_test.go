package mpc

import "testing"

// TestQueryAccounting pins the query-half semantics of a read-only
// pipeline window: the rounds of its query-only wave fold into the query
// half — and into no update aggregate — and the amortized helper reports
// against the window's query count.
func TestQueryAccounting(t *testing.T) {
	c := NewCluster(Config{Machines: 4, MemWords: 64})
	for i := 0; i < 4; i++ {
		c.SetMachine(i, bounceMachine{})
	}

	c.BeginMixed(0, 8, nil)
	c.BeginMixedWave(waveOps(0, 8), nil)
	c.Send(Message{From: -1, To: 0, Payload: "ping", Words: 1})
	c.Send(Message{From: -1, To: 2, Payload: "ping", Words: 1})
	c.Run(8)
	c.EndMixedWave()
	m := c.EndMixed()
	q := m.Queries

	if q.Ops != 8 {
		t.Fatalf("query half covers %d queries, want 8", q.Ops)
	}
	if q.Rounds == 0 || q.SumWords == 0 || q.MaxActive == 0 {
		t.Fatalf("query accounting empty: %+v", q)
	}
	if want := float64(q.Rounds) / 8; q.RoundsPerOp() != want {
		t.Fatalf("RoundsPerOp %.3f, want %.3f", q.RoundsPerOp(), want)
	}
	if m.Updates != (HalfStats{}) {
		t.Fatalf("query rounds recorded on the update half: %+v", m.Updates)
	}
	if m.Rounds() != q.Rounds {
		t.Fatalf("window has %d rounds, query half %d", m.Rounds(), q.Rounds)
	}
}

// TestQueryWindowExclusivity pins the headline bugfix of the query
// pipeline: query rounds cannot leak into an open write window — opening
// a window inside another, whatever the two cover, panics instead of
// silently folding rounds across accounting classes — while sequential
// windows leave each other alone.
func TestQueryWindowExclusivity(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic, got none", name)
			}
		}()
		f()
	}

	for _, tc := range []struct {
		name                 string
		outerU, outerQ, u, q int
	}{
		{"queries inside update", 1, 0, 0, 2},
		{"update inside queries", 0, 2, 1, 0},
		{"queries inside queries", 0, 1, 0, 2},
	} {
		mustPanic(tc.name, func() {
			c := NewCluster(Config{Machines: 2, MemWords: 64})
			c.BeginMixed(tc.outerU, tc.outerQ, nil)
			c.BeginMixed(tc.u, tc.q, nil)
		})
	}

	// Sequential windows remain fine: update, then queries, then an update.
	c := NewCluster(Config{Machines: 4, MemWords: 64})
	for i := 0; i < 4; i++ {
		c.SetMachine(i, bounceMachine{})
	}
	update := func(to int) HalfStats {
		c.BeginMixed(1, 0, nil)
		c.Send(Message{From: -1, To: to, Payload: "ping", Words: 1})
		c.Run(8)
		return c.EndMixed().Updates
	}
	u1 := update(0)
	c.BeginMixed(0, 1, nil)
	c.BeginMixedWave(waveOps(0, 1), nil)
	c.Send(Message{From: -1, To: 1, Payload: "ping", Words: 1})
	c.Run(8)
	c.EndMixedWave()
	q := c.EndMixed()
	u2 := update(2)
	if u1 != u2 {
		t.Fatalf("interleaved query window changed update accounting: %+v vs %+v", u1, u2)
	}
	if q.Queries.Rounds == 0 || q.Updates.Rounds != 0 {
		t.Fatalf("query window accounting wrong: %+v", q)
	}
}
