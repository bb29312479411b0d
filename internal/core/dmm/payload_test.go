package dmm

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"dmpc/internal/graph"
)

// TestPayloadSizes keeps every message the size of what it carries: the
// eight kinds on §3's per-update path travel in payloads of at most 64
// bytes and no payload type is over 96, so a field added later cannot
// quietly re-inflate every message.
func TestPayloadSizes(t *testing.T) {
	for _, p := range []struct {
		kinds      string
		size, most uintptr
	}{
		{"update", unsafe.Sizeof(update{}), 64},
		{"mate query", unsafe.Sizeof(mateQuery{}), 64},
		{"stats request", unsafe.Sizeof(statsReq{}), 64},
		{"stats reply", unsafe.Sizeof(statsRep{}), 64},
		{"stats set", unsafe.Sizeof(statsSet{}), 64},
		{"store and refresh", unsafe.Sizeof(storeMsg{}), 64},
		{"ack", unsafe.Sizeof(ack{}), 64},
		{"suspended-stack set", unsafe.Sizeof(suspSet{}), 96},
		{"scan, move-out and list", unsafe.Sizeof(storageReq{}), 96},
		{"scan reply, list reply and move-in", unsafe.Sizeof(storageRep{}), 96},
		{"§4 counters", unsafe.Sizeof(ctrMsg{}), 96},
	} {
		if p.size > p.most {
			t.Errorf("%s payload is %d bytes, over %d", p.kinds, p.size, p.most)
		}
	}
}

// mmUniformOps is the mm-uniform stream shape at n vertices: a random
// stream of 0.55 inserts, one QMateOf read per update.
func mmUniformOps(n, updates int) []graph.Op {
	rng := rand.New(rand.NewSource(1))
	ups := graph.RandomStream(n, updates, .55, 1, rng)
	return graph.MixedStream(ups, .5, func(r *rand.Rand) graph.Op { return graph.OpQMateOf(r.Intn(n)) }, rng)
}

// TestBytesPerOp bounds what ApplyOps allocates per op of an mm-uniform
// stream in k = 64 windows: in §3 at n = 128 and n = 10⁴, and in §4
// (ThreeHalves) at n = 128. Each bound sits 10 % over what its row
// measured when it was set: 133 B and 1.32 allocations per op, 257 B and
// 1.93, and 270 B and 5.22. While MC's flows ran as closure chains (each
// await a heap closure, capturing copies of the endpoints' stats), they
// read 333 B and 5.89, 460 B and 6.67, and 873 B and 18.28. Before that,
// when every per-update send boxed its payload and every flow kept its
// replies as boxed pointers, the §3 rows read 604 B and 13.39, 721 B and
// 14.85; when every message boxed the whole 320-byte message record and
// every flow copied its replies, 3 282 B and 15.15 at n = 10⁴.
func TestBytesPerOp(t *testing.T) {
	const k = 64
	for _, tc := range []struct {
		n                  int
		threeHalves        bool
		bytes, allocations float64
	}{{128, false, 147, 1.46}, {10000, false, 283, 2.13}, {128, true, 297, 5.75}} {
		ops := mmUniformOps(tc.n, 2000)
		m := New(Config{N: tc.n, CapEdges: 6 * tc.n, ThreeHalves: tc.threeHalves, Workers: 1})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for at := 0; at < len(ops); at += k {
			m.ApplyOps(ops[at:min(at+k, len(ops))])
		}
		runtime.ReadMemStats(&after)
		m.Close()
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(ops))
		allocs := float64(after.Mallocs-before.Mallocs) / float64(len(ops))
		t.Logf("n=%d, §4=%v, %d ops: %.0f B/op, %.2f allocs/op", tc.n, tc.threeHalves, len(ops), bytes, allocs)
		if bytes > tc.bytes || allocs > tc.allocations {
			t.Errorf("n=%d, §4=%v: ApplyOps allocates %.0f B and %.2f allocations per op, over %.0f B and %.2f",
				tc.n, tc.threeHalves, bytes, allocs, tc.bytes, tc.allocations)
		}
	}
}

// BenchmarkApplyOps is the mm-uniform stream at n = 10⁵ in k = 64 windows,
// per op: ns/op, B/op and allocs/op. A fresh instance takes over, off the
// clock, whenever the stream runs out.
func BenchmarkApplyOps(b *testing.B) {
	const n, k = 100000, 64
	ops := mmUniformOps(n, 8000)
	cfg := Config{N: n, CapEdges: 6 * n, Workers: 1}
	m := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for done, at := 0, 0; done < b.N; {
		if at == len(ops) {
			b.StopTimer()
			m, at = New(cfg), 0
			b.StartTimer()
		}
		end := min(at+k, len(ops), at+b.N-done)
		m.ApplyOps(ops[at:end])
		done, at = done+end-at, end
	}
}
