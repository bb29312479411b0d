package reduction

import (
	"math/rand"
	"testing"

	"dmpc/internal/graph"
	"dmpc/internal/seqdyn"
)

// TestBatchSequentialReplay pins the §7 batch story: the simulation is
// serial at machine 0, so a batch is its updates replayed one
// window at a time — the cluster spends exactly the sum of the returned
// per-update windows' rounds on it, nothing shared and nothing unbilled —
// and the wrapped structure's answers still match the oracle.
func TestBatchSequentialReplay(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(31))
	stream := graph.RandomStream(n, 120, 0.6, 1, rng)

	sim := NewSim(8, 1<<17)
	w := NewWrapped(sim, HDTTarget{H: seqdyn.NewHDT(n)})
	g := graph.New(n)
	for _, b := range graph.Chunk(stream, 16) {
		before := sim.Cluster().Stats().Rounds
		sum := 0
		for _, up := range b {
			u := w.Update(up)
			if u.Rounds == 0 {
				t.Fatalf("update %v billed no rounds", up)
			}
			sum += u.Rounds
		}
		if spent := sim.Cluster().Stats().Rounds - before; spent != sum {
			t.Fatalf("batch spent %d cluster rounds != sum of per-update windows %d", spent, sum)
		}
		b.Apply(g)
	}
	comp := graph.Components(g)
	for u := 0; u < n; u += 3 {
		for v := u + 1; v < n; v += 2 {
			if w.Target.(HDTTarget).H.Connected(u, v) != (comp[u] == comp[v]) {
				t.Fatalf("Connected(%d,%d) mismatch after batched replay", u, v)
			}
		}
	}
}
