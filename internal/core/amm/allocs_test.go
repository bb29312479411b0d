package amm

import (
	"math/rand"
	"runtime"
	"testing"

	"dmpc/internal/graph"
)

// ammIngestOps is the amm-ingest op stream on n vertices: a random update
// stream (0.55 inserts), reads of one vertex's mate at fraction 0.5, and
// the ops dealt round-robin to tenants 1–4.
func ammIngestOps(n, updates int) []graph.Op {
	rng := rand.New(rand.NewSource(1))
	ups := graph.RandomStream(n, updates, .55, 1, rng)
	ops := graph.MixedStream(ups, .5, func(r *rand.Rand) graph.Op { return graph.OpQMateOf(r.Intn(n)) }, rng)
	for i := range ops {
		ops[i].Tenant = 1 + i%4
	}
	return ops
}

// TestAllocsPerOp bounds what ApplyOps allocates per op of an amm-ingest
// stream (2 000 updates) in k = 64 windows, every handler inline. Each
// bound sits 10 % over what its size measured when it was set: 1.05
// allocations per op at n = 128 and 2.63 at n = 10⁴. Before the
// scheduler's level queues and order lists kept their capacity, they read
// 1.53 and 2.98; when every payload was an amsg boxed into its message,
// 14.77 and 13.83.
func TestAllocsPerOp(t *testing.T) {
	const k = 64
	for _, tc := range []struct {
		n    int
		most float64
	}{{128, 1.16}, {10_000, 2.9}} {
		ops := ammIngestOps(tc.n, 2000)
		m := New(Config{N: tc.n, Seed: 1, Workers: 1})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for at := 0; at < len(ops); at += k {
			m.ApplyOps(ops[at:min(at+k, len(ops))])
		}
		runtime.ReadMemStats(&after)
		m.Close()
		allocs := float64(after.Mallocs-before.Mallocs) / float64(len(ops))
		t.Logf("n=%d, %d ops: %.2f allocs/op", tc.n, len(ops), allocs)
		if allocs > tc.most {
			t.Errorf("n=%d: ApplyOps makes %.2f allocations per op, over %.1f", tc.n, allocs, tc.most)
		}
	}
}

// BenchmarkApplyOps is the amm-ingest stream at n = 10⁵ in k = 64
// windows, per op: ns/op, B/op and allocs/op. A fresh instance takes
// over, off the clock, whenever the stream runs out.
func BenchmarkApplyOps(b *testing.B) {
	const n, k = 100000, 64
	ops := ammIngestOps(n, 8000)
	cfg := Config{N: n, Seed: 1, Workers: 1}
	m := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for done, at := 0, 0; done < b.N; {
		if at == len(ops) {
			b.StopTimer()
			m.Close()
			m, at = New(cfg), 0
			b.StartTimer()
		}
		end := min(at+k, len(ops), at+b.N-done)
		m.ApplyOps(ops[at:end])
		done, at = done+end-at, end
	}
	m.Close()
}
