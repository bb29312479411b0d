package reduction

import (
	"math/rand"
	"testing"

	"dmpc/internal/graph"
	"dmpc/internal/seqdyn"
)

func TestStoreReadWriteRoundTrip(t *testing.T) {
	sim := NewSim(4, 0)
	sim.Write(7, 42)
	sim.Write(1003, -5)
	if got := sim.Read(7); got != 42 {
		t.Fatalf("read = %d", got)
	}
	if got := sim.Read(1003); got != -5 {
		t.Fatalf("read = %d", got)
	}
	if got := sim.Read(99); got != 0 {
		t.Fatalf("unwritten read = %d", got)
	}
}

func TestMemoryOpAccounting(t *testing.T) {
	sim := NewSim(4, 0)
	sim.Cluster().BeginMixed(1, 0, nil)
	sim.Read(5)
	u := sim.Cluster().EndMixed().Updates
	// One read = request round + reply round, <= 2 machines active.
	if u.Rounds != 2 {
		t.Fatalf("read rounds = %d, want 2", u.Rounds)
	}
	if u.MaxActive > 2 {
		t.Fatalf("active = %d, want <= 2", u.MaxActive)
	}
	if u.MaxWords > 4 {
		t.Fatalf("words = %d, want O(1)", u.MaxWords)
	}
	sim.Cluster().BeginMixed(1, 0, nil)
	sim.Write(5, 1)
	u = sim.Cluster().EndMixed().Updates
	if u.Rounds != 1 || u.MaxActive > 1 {
		t.Fatalf("write stats = %+v", u)
	}
}

func TestStoreUnionFindMatchesOracle(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(3))
	sim := NewSim(8, 0)
	uf := NewStoreUnionFind(sim, n)
	g := graph.New(n)
	for i := 0; i < 60; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		g.Insert(a, b, 1)
		uf.Union(a, b)
	}
	comp := graph.Components(g)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b += 3 {
			if uf.Connected(a, b) != (comp[a] == comp[b]) {
				t.Fatalf("Connected(%d,%d) mismatch", a, b)
			}
		}
	}
}

func TestLemma71RoundsTrackSequentialOps(t *testing.T) {
	// The wrapped HDT's rounds per update must equal Θ(counted ops): here
	// exactly 1 round per op (write replay) plus nothing else.
	const n = 24
	rng := rand.New(rand.NewSource(5))
	sim := NewSim(8, 1<<17)
	h := seqdyn.NewHDT(n)
	w := NewWrapped(sim, HDTTarget{H: h})
	for _, up := range graph.RandomStream(n, 150, 0.55, 1, rng) {
		before := h.Ops.Count()
		st := w.Update(up)
		ops := h.Ops.Count() - before
		if int64(st.Rounds) != ops {
			t.Fatalf("update %v: rounds %d != ops %d", up, st.Rounds, ops)
		}
		if st.MaxActive > 2 {
			t.Fatalf("update %v: %d active machines, want O(1)", up, st.MaxActive)
		}
		if st.MaxWords > 8 {
			t.Fatalf("update %v: %d words/round, want O(1)", up, st.MaxWords)
		}
	}
}

func TestWrappedTargetsStayCorrect(t *testing.T) {
	// The reduction must not perturb the wrapped algorithms' answers.
	const n = 20
	rng := rand.New(rand.NewSource(7))
	simH := NewSim(4, 1<<17)
	simM := NewSim(4, 1<<17)
	simF := NewSim(4, 1<<17)
	h := seqdyn.NewHDT(n)
	m := seqdyn.NewNSMatch(n, 100)
	f := seqdyn.NewDynMSF(n)
	wh := NewWrapped(simH, HDTTarget{H: h})
	wm := NewWrapped(simM, NSMatchTarget{M: m})
	wf := NewWrapped(simF, MSFTarget{F: f})
	g := graph.New(n)
	for _, up := range graph.RandomStream(n, 120, 0.6, 20, rng) {
		wh.Update(up)
		wm.Update(up)
		wf.Update(up)
		g.Apply(up)
	}
	if h.Components() != graph.NumComponents(g) {
		t.Fatal("HDT diverged under reduction")
	}
	if !graph.IsMaximalMatching(g, m.MateTable()) {
		t.Fatal("NSMatch diverged under reduction")
	}
	if f.Weight() != graph.MSFWeight(g) {
		t.Fatal("DynMSF diverged under reduction")
	}
}
