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
// stream in k = 64 windows. When every message boxed the whole 320-byte
// message record and every flow copied its replies, this read 3 282 B and
// 15.15 allocations per op.
func TestBytesPerOp(t *testing.T) {
	const n, k = 10000, 64
	ops := mmUniformOps(n, 2000)
	m := New(Config{N: n, CapEdges: 6 * n, Workers: 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for at := 0; at < len(ops); at += k {
		m.ApplyOps(ops[at:min(at+k, len(ops))])
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(ops))
	allocs := float64(after.Mallocs-before.Mallocs) / float64(len(ops))
	t.Logf("%d ops: %.0f B/op, %.2f allocs/op", len(ops), bytes, allocs)
	if bytes > 1200 || allocs > 15.2 {
		t.Fatalf("ApplyOps allocates %.0f B and %.2f allocations per op, over 1200 B and 15.2", bytes, allocs)
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
