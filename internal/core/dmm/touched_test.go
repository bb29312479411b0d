package dmm

import (
	"math/rand"
	"strings"
	"testing"

	"dmpc/internal/graph"
)

// The tests below pin the O(touched) local work of the §3 machines: the
// running MemWords counters, the storage owner index and the copy-free
// history suffix — each audited by Validate, each audit shown to trip.

// randomInstance applies a random stream through k=16 windows and returns
// the instance with the graph it mirrors.
func randomInstance(t testing.TB, cfg Config, updates int, seed int64) (*M, *graph.Graph) {
	t.Helper()
	m, g := New(cfg), graph.New(cfg.N)
	stream := graph.RandomStream(cfg.N, updates, 0.55, 1, rand.New(rand.NewSource(seed)))
	for _, b := range graph.Chunk(stream, 16) {
		applyBatch(m, b)
		b.Apply(g)
	}
	return m, g
}

func sumMemWords(m *M) int {
	w := m.coord.MemWords()
	for _, sm := range m.stats {
		w += sm.MemWords()
	}
	for i := range m.storage {
		w += m.storage[i].MemWords()
	}
	return w
}

// TestValidateReadsWithoutWriting: Validate used to read every vertex
// through statsMachine.get, allocating a stat (6 reported words) for each
// never-touched vertex — a validated instance reported more memory than an
// unvalidated one.
func TestValidateReadsWithoutWriting(t *testing.T) {
	// 200 vertices, 20 updates: most vertices are never touched.
	m, g := randomInstance(t, Config{N: 200, CapEdges: 300}, 20, 3)
	words, stats := sumMemWords(m), 0
	for _, sm := range m.stats {
		stats += len(sm.stats)
	}
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	after := 0
	for _, sm := range m.stats {
		after += len(sm.stats)
	}
	if got := sumMemWords(m); got != words || after != stats {
		t.Fatalf("Validate changed what it validates: Σ MemWords %d → %d, stats entries %d → %d",
			words, got, stats, after)
	}
}

// TestSuffixViewImmutable: a suffix handed to a storage machine is a view
// of the ring, and stays element-for-element what it was while the ring
// rolls over — twice its capacity, every cursor advanced — behind it.
func TestSuffixViewImmutable(t *testing.T) {
	m := New(Config{N: 24, CapEdges: 150})
	c := m.coord
	target := int32(c.firstStore())
	for i := 0; i < 40; i++ {
		c.hAppend(hentry{op: hMatched, a: int32(i), b: int32(i + 1)})
	}
	view := c.suffixFor(target)
	want := append([]hentry(nil), view...)
	if len(view) != 40 || cap(view) != 40 {
		t.Fatalf("suffix view has len %d cap %d, want 40 and 40 (nothing may append into it)", len(view), cap(view))
	}
	for i := 0; i < 2*c.hCap+50; i++ {
		c.hAppend(hentry{op: hUnmatched, a: -7, b: -7})
		if i%64 == 0 {
			for s := c.firstStore(); s < c.mu; s++ {
				c.suffixFor(int32(s))
			}
		}
	}
	if c.hBase < int64(c.hCap) {
		t.Fatalf("ring never rolled over: base %d, capacity %d", c.hBase, c.hCap)
	}
	for i := range want {
		if view[i] != want[i] {
			t.Fatalf("retained suffix entry %d changed: %+v, was %+v", i, view[i], want[i])
		}
	}
	if got := testing.AllocsPerRun(100, func() { c.suffixFor(target) }); got != 0 {
		t.Fatalf("suffixFor allocates %.0f times per call", got)
	}
}

// TestRingRolloverWorkerEquivalence drives enough updates for the ring to
// drop its front many times over at every worker count. On a sharded
// cluster MC appends to the ring while storage machines replay the views
// sent a round earlier — disjoint indices of one array — so under -race
// this is the detector agreeing that the views need no copy.
func TestRingRolloverWorkerEquivalence(t *testing.T) {
	cfg := Config{N: 24, CapEdges: 150}
	inline, g := randomInstance(t, cfg, 3000, 9)
	if inline.coord.hBase < 2*int64(inline.coord.hCap) {
		t.Fatalf("ring rolled only to %d, capacity %d", inline.coord.hBase, inline.coord.hCap)
	}
	for _, w := range replicaWorkers {
		cfg.Workers = w
		par, _ := randomInstance(t, cfg, 3000, 9)
		defer par.Close()
		assertReplicaEquivalent(t, inline, par)
		if err := par.Validate(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := inline.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestEveryAuditTrips corrupts each running summary by one and requires
// Validate to name it.
func TestEveryAuditTrips(t *testing.T) {
	holder := func(m *M) *storeMachine {
		for i := range m.storage {
			if m.storage[i].nrecs > 0 {
				return &m.storage[i]
			}
		}
		t.Fatal("no storage machine holds a record")
		return nil
	}
	cases := []struct {
		want    string
		corrupt func(m *M)
	}{
		{"stats word counter", func(m *M) { m.stats[0].suspWords++ }},
		{"record counter", func(m *M) { holder(m).nrecs++ }},
		{"owner index off by", func(m *M) {
			s := holder(m)
			for _, p := range s.head {
				s.nodes[p].owner++ // one record now indexed under the wrong owner
				return
			}
		}},
		{"cursor sum", func(m *M) { m.coord.syncSum-- }},
	}
	for _, tc := range cases {
		m, g := randomInstance(t, Config{N: 24, CapEdges: 150}, 120, 5)
		if err := m.Validate(g); err != nil {
			t.Fatalf("%s: clean instance fails: %v", tc.want, err)
		}
		tc.corrupt(m)
		if err := m.Validate(g); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("corrupted %q: Validate returned %v", tc.want, err)
		}
	}
}

// TestApplyHTouchesOnlyMatching: one H entry costs the owner lists that
// mention its vertices, not the machine. The witness is a set of decoy
// records slipped into edges behind the index: a scan would find and
// rewrite them, the index cannot.
func TestApplyHTouchesOnlyMatching(t *testing.T) {
	const owners, perOwner, a, b = 1000, 10, int32(5), int32(6)
	s := &storeMachine{id: 1}
	for v := int32(0); v < owners; v++ {
		for j := int32(0); j < perOwner; j++ {
			s.add(v, edgeRec{other: owners + v*perOwner + j, mate: -1})
		}
	}
	s.add(1, edgeRec{other: a, mate: -1})
	s.add(2, edgeRec{other: a, mate: -1})
	s.add(3, edgeRec{other: b, mate: -1})
	if err := s.audit(); err != nil {
		t.Fatal(err)
	}
	decoys := func(s *storeMachine) (touched int) {
		for v := int32(-owners); v < 0; v++ {
			for _, r := range s.edges[v] {
				if r.matched {
					touched++
				}
			}
		}
		return touched
	}
	plant := func(s *storeMachine) {
		for v := int32(-owners); v < 0; v++ {
			s.edges[v] = []edgeRec{{other: a, mate: -1}, {other: b, mate: -1}}
		}
	}
	plant(s)
	s.applyH([]hentry{{op: hMatched, a: a, b: b}})
	for _, v := range []int32{1, 2, 3} {
		recs := s.edges[v]
		if r := recs[len(recs)-1]; !r.matched {
			t.Fatalf("indexed record of owner %d not updated: %+v", v, r)
		}
	}
	if n := decoys(s); n != 0 {
		t.Fatalf("applyH reached %d records outside the owner lists of its two vertices", n)
	}

	// A machine holding no records replays nothing, however long the suffix.
	empty := &storeMachine{id: 2, edges: map[int32][]edgeRec{}}
	plant(empty)
	h := make([]hentry, 10000)
	for i := range h {
		h[i] = hentry{op: hMatched, a: a, b: b}
	}
	if freed := empty.applyH(h); freed != 0 || decoys(empty) != 0 {
		t.Fatalf("empty machine replayed history: freed %d, touched %d records", freed, decoys(empty))
	}

	m, _ := randomInstance(t, Config{N: 24, CapEdges: 150}, 120, 5)
	for name, f := range map[string]func() int{
		"coordinator": m.coord.MemWords, "stats": m.stats[0].MemWords, "store": s.MemWords,
	} {
		if got := testing.AllocsPerRun(100, func() { f() }); got != 0 {
			t.Fatalf("%s MemWords allocates %.0f times per call", name, got)
		}
	}
}

// TestOwnerIndexMultiplicity: a stale lazily-deleted copy and its re-insert
// coexist under one owner; the index names the owner once per record and
// gives the entries back one at a time.
func TestOwnerIndexMultiplicity(t *testing.T) {
	s := &storeMachine{id: 1}
	s.add(1, edgeRec{other: 9, mate: -1})
	s.add(1, edgeRec{other: 9, mate: -1})
	s.add(2, edgeRec{other: 9, mate: -1})
	for want := 3; want > 0; want-- {
		if err := s.audit(); err != nil {
			t.Fatal(err)
		}
		if got := s.MemWords(); got != want*edgeWords {
			t.Fatalf("MemWords %d with %d records", got, want)
		}
		v := int32(1)
		if want == 1 {
			v = 2
		}
		if s.removeRec(v, 9) != edgeWords {
			t.Fatalf("record (%d,9) not found with %d left", v, want)
		}
	}
	if len(s.head) != 0 || len(s.edges) != 0 || s.nrecs != 0 {
		t.Fatalf("machine not empty after removing everything: %+v", s)
	}
	s.add(3, edgeRec{other: 4, mate: -1})
	if len(s.nodes) != 4 {
		t.Fatalf("freed nodes not recycled: %d nodes for a 3-record peak", len(s.nodes))
	}
}

// BenchmarkDMMHistoryFlat reports the per-op time of ApplyOps (k = 64) over
// ops 0–2 k and ops 14–16 k of one stream: §3's local work must not grow
// with what the machines hold or with the history behind them.
func BenchmarkDMMHistoryFlat(b *testing.B) {
	const n, k, span = 20000, 64, 2000
	rng := rand.New(rand.NewSource(1))
	ups := graph.RandomStream(n, 8000, 0.55, 1, rng)
	ops := graph.MixedStream(ups, 0.5, func(r *rand.Rand) graph.Op { return graph.OpQMateOf(r.Intn(n)) }, rng)
	for _, w := range []struct {
		name string
		from int
	}{{"ops0-2k", 0}, {"ops14k-16k", 14000}} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := New(Config{N: n, CapEdges: 6 * n})
				for at := 0; at < w.from; at += k {
					m.ApplyOps(ops[at : at+k])
				}
				b.StartTimer()
				for at := w.from; at < w.from+span; at += k {
					m.ApplyOps(ops[at:min(at+k, w.from+span)])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*span), "ns/applied-op")
		})
	}
}
