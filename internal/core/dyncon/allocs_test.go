package dyncon

import (
	"math/rand"
	"runtime"
	"testing"

	"dmpc/internal/graph"
)

// TestAllocsPerOp bounds what ApplyOps allocates per update of a §5
// connectivity stream (200 updates, 0.55 inserts, weights up to 50) in
// write-only k = 64 windows, every handler inline. Each bound sits 10 %
// over what its size measured when it was set: 15.9 allocations per
// update at n = 128 and 16.7 at n = 10⁴.
func TestAllocsPerOp(t *testing.T) {
	const k = 64
	for _, tc := range []struct {
		n    int
		most float64
	}{{128, 17.5}, {10_000, 18.3}} {
		ups := graph.RandomStream(tc.n, 200, 0.55, 50, rand.New(rand.NewSource(301)))
		d := New(Config{N: tc.n, Mode: CC, ExpectedEdges: 6 * tc.n, Workers: 1})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, b := range graph.Chunk(ups, k) {
			d.ApplyOps(graph.UpdateOps(b))
		}
		runtime.ReadMemStats(&after)
		d.Close()
		allocs := float64(after.Mallocs-before.Mallocs) / float64(len(ups))
		t.Logf("n=%d: %.2f allocs/op", tc.n, allocs)
		if allocs > tc.most {
			t.Errorf("n=%d: ApplyOps makes %.2f allocations per update, over %.1f", tc.n, allocs, tc.most)
		}
	}
}
