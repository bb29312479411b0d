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
	sim.Write(7, 43)
	for addr, want := range map[int]int64{7: 43, 1003: -5} {
		b := sim.Cluster().MachineAt(sim.bankOf(addr)).(*bank)
		if got, ok := b.words[addr]; !ok || got != want {
			t.Fatalf("bank %d holds %d at %d (present %v), want %d", sim.bankOf(addr), got, addr, ok, want)
		}
	}
	if sim.Cluster().MachineAt(0) != nil {
		t.Fatal("machine 0 runs a handler")
	}
}

func TestMemoryOpAccounting(t *testing.T) {
	// One write is the §7 reduction's one exchange: a single round in
	// which the address's bank alone is active and 3 words move.
	sim := NewSim(4, 0)
	sim.Cluster().BeginMixed(1, 0)
	sim.Write(5, 1)
	u := sim.Cluster().EndMixed().Updates
	if u.Rounds != 1 || u.MaxActive != 1 || u.SumActive != 1 || u.MaxWords != 3 || u.SumWords != 3 {
		t.Fatalf("write stats = %+v, want 1 round, 1 active machine, 3 words", u)
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
