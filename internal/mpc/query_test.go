package mpc

import "testing"

// TestQueryAccounting pins the QueryStats semantics of a read-only
// pipeline window: the rounds of its query-only wave fold into the query
// half — and into no update aggregate — and the amortized helper reports
// against the window's query count.
func TestQueryAccounting(t *testing.T) {
	c := NewCluster(Config{Machines: 4, MemWords: 64})
	for i := 0; i < 4; i++ {
		c.SetMachine(i, bounceMachine{})
	}

	c.BeginMixed(0, 8, nil)
	c.BeginMixedWave(0, 8, nil)
	c.Send(Message{From: -1, To: 0, Payload: "ping", Words: 1})
	c.Send(Message{From: -1, To: 2, Payload: "ping", Words: 1})
	c.Run(8)
	c.EndMixedWave()
	m := c.EndMixed()
	q := m.Queries

	if q.Queries != 8 {
		t.Fatalf("query half covers %d queries, want 8", q.Queries)
	}
	if q.Rounds == 0 || q.SumWords == 0 || q.MaxActive == 0 {
		t.Fatalf("query accounting empty: %+v", q)
	}
	if want := float64(q.Rounds) / 8; q.RoundsPerQuery() != want {
		t.Fatalf("RoundsPerQuery %.3f, want %.3f", q.RoundsPerQuery(), want)
	}
	if !m.Updates.Equal(BatchStats{}) {
		t.Fatalf("query rounds recorded on the update half: %+v", m.Updates)
	}
	if m.Rounds() != q.Rounds {
		t.Fatalf("window has %d rounds, query half %d", m.Rounds(), q.Rounds)
	}
}

// TestQueryWindowExclusivity pins the headline bugfix of the query
// pipeline: query rounds cannot leak into an open update window — opening
// a pipeline window (the only home of query rounds) inside an update
// window, or vice versa, panics instead of silently folding rounds across
// accounting classes — while sequential windows leave each other alone.
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

	mustPanic("queries inside update", func() {
		c := NewCluster(Config{Machines: 2, MemWords: 64})
		c.BeginUpdate()
		c.BeginMixed(0, 2, nil)
	})
	mustPanic("update inside queries", func() {
		c := NewCluster(Config{Machines: 2, MemWords: 64})
		c.BeginMixed(0, 2, nil)
		c.BeginUpdate()
	})
	mustPanic("queries inside queries", func() {
		c := NewCluster(Config{Machines: 2, MemWords: 64})
		c.BeginMixed(0, 1, nil)
		c.BeginMixed(0, 2, nil)
	})

	// Sequential windows remain fine: update, then queries, then an update.
	c := NewCluster(Config{Machines: 4, MemWords: 64})
	for i := 0; i < 4; i++ {
		c.SetMachine(i, bounceMachine{})
	}
	c.BeginUpdate()
	c.Send(Message{From: -1, To: 0, Payload: "ping", Words: 1})
	c.Run(8)
	u1 := c.EndUpdate()
	c.BeginMixed(0, 1, nil)
	c.BeginMixedWave(0, 1, nil)
	c.Send(Message{From: -1, To: 1, Payload: "ping", Words: 1})
	c.Run(8)
	c.EndMixedWave()
	q := c.EndMixed()
	c.BeginUpdate()
	c.Send(Message{From: -1, To: 2, Payload: "ping", Words: 1})
	c.Run(8)
	u2 := c.EndUpdate()
	if u1 != u2 {
		t.Fatalf("interleaved query window changed update accounting: %+v vs %+v", u1, u2)
	}
	if q.Queries.Rounds == 0 || q.Updates.Rounds != 0 {
		t.Fatalf("query window accounting wrong: %+v", q)
	}
}
