package dyncon

import (
	"math/rand"
	"runtime"
	"testing"

	"dmpc/internal/graph"
)

// TestAllocsPerOp bounds what ApplyOps allocates per op of a §5
// connectivity stream (200 updates, 0.55 inserts, weights up to 50) in
// k = 64 windows, every handler inline: write-only at n = 128 and n = 10⁴,
// and at n = 10⁴ with as many reads again, half OpConnected and half
// OpComponentOf, mixed in. Each bound sits 10 % over what its row measured
// when it was set: 7.54, 10.00 and 4.87 allocations per op.
func TestAllocsPerOp(t *testing.T) {
	const k = 64
	for _, tc := range []struct {
		n     int
		reads bool
		most  float64
	}{{128, false, 8.3}, {10_000, false, 11.0}, {10_000, true, 5.4}} {
		rng := rand.New(rand.NewSource(301))
		ups := graph.RandomStream(tc.n, 200, 0.55, 50, rng)
		ops := graph.UpdateOps(ups)
		if tc.reads {
			ops = graph.MixedStream(ups, 0.5, func(r *rand.Rand) graph.Op {
				if r.Intn(2) == 0 {
					return graph.OpQConnected(r.Intn(tc.n), r.Intn(tc.n))
				}
				return graph.OpQComponentOf(r.Intn(tc.n))
			}, rng)
		}
		d := New(Config{N: tc.n, Mode: CC, ExpectedEdges: 6 * tc.n, Workers: 1})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < len(ops); i += k {
			d.ApplyOps(ops[i:min(i+k, len(ops))])
		}
		runtime.ReadMemStats(&after)
		d.Close()
		allocs := float64(after.Mallocs-before.Mallocs) / float64(len(ops))
		t.Logf("n=%d, reads %v: %.2f allocs/op", tc.n, tc.reads, allocs)
		if allocs > tc.most {
			t.Errorf("n=%d, reads %v: ApplyOps makes %.2f allocations per op, over %.1f", tc.n, tc.reads, allocs, tc.most)
		}
	}
}
