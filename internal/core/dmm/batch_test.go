package dmm

import (
	"math/rand"
	"testing"

	"dmpc/internal/graph"
)

// TestBatchEquivalence pins the batch pipeline's contract: applying a
// stream in batches of k yields exactly the matching produced by applying
// the updates one at a time, for both the §3 and §4 structures.
func TestBatchEquivalence(t *testing.T) {
	for _, three := range []bool{false, true} {
		for _, k := range []int{1, 5, 16} {
			const n, capEdges = 48, 300
			rng := rand.New(rand.NewSource(11))
			stream := graph.RandomStream(n, 240, 0.55, 1, rng)

			seqM := New(Config{N: n, CapEdges: capEdges, ThreeHalves: three})
			for _, up := range stream {
				applyUpdate(seqM, up)
			}

			batM := New(Config{N: n, CapEdges: capEdges, ThreeHalves: three})
			g := graph.New(n)
			for _, b := range graph.Chunk(stream, k) {
				st := applyBatch(batM, b)
				if st.Ops != len(b) || st.Rounds == 0 {
					t.Fatalf("three=%v k=%d: bad batch stats %+v", three, k, st)
				}
				b.Apply(g)
				if err := batM.Validate(g); err != nil {
					t.Fatalf("three=%v k=%d: invariants broken after batch: %v", three, k, err)
				}
			}

			want, got := seqM.MateTable(), batM.MateTable()
			for v := range want {
				if want[v] != got[v] {
					t.Fatalf("three=%v k=%d: mate of %d is %d, sequential %d",
						three, k, v, got[v], want[v])
				}
			}
			if !graph.IsMaximalMatching(g, got) {
				t.Fatalf("three=%v k=%d: batched matching not maximal", three, k)
			}
			if v := batM.Cluster().Stats().Violations; v != 0 {
				t.Fatalf("three=%v k=%d: %d cluster constraint violations", three, k, v)
			}
		}
	}
}

// TestBatchAmortizedRoundsDrop pins the batching win: chaining k updates
// through MC in one window costs strictly fewer rounds per update than
// separate windows, and the advantage grows with k.
func TestBatchAmortizedRoundsDrop(t *testing.T) {
	const n, capEdges = 48, 300
	perUpdate := func(k int) float64 {
		rng := rand.New(rand.NewSource(5))
		stream := graph.RandomStream(n, 256, 0.55, 1, rng)
		m := New(Config{N: n, CapEdges: capEdges})
		rounds, updates := 0, 0
		for _, b := range graph.Chunk(stream, k) {
			st := applyBatch(m, b)
			rounds += st.Rounds
			updates += st.Ops
		}
		return float64(rounds) / float64(updates)
	}
	r1, r16, r64 := perUpdate(1), perUpdate(16), perUpdate(64)
	if r16 >= r1 || r64 >= r16 {
		t.Fatalf("amortized rounds/update did not drop: k=1 %.2f, k=16 %.2f, k=64 %.2f", r1, r16, r64)
	}
}
