package amm

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// The tests below pin the O(touched) local work of the §6 shards: the
// running MemWords counters and the two probe indexes — each audited by
// Validate, each audit shown to trip — and oracles that read without
// writing.

// scanProbe is the probe as it was before the indexes, kept as their
// oracle: every vertex the shard holds, sorted, is tested. It returns the
// shuffle candidates the draw picks from and the rise reply.
func scanProbe(s *shard) (cands []int32, rise amsg) {
	var ids []int32
	for v := range s.verts {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, v := range ids {
		st := s.verts[v]
		if st.mate >= 0 && st.lvl >= 1 && v < st.mate {
			cands = append(cands, v)
		}
	}
	rise = amsg{Kind: aProbeRep}
	cap := 4 * bits(s.cfg.N) * bits(s.cfg.N)
	for _, v := range ids {
		st := s.verts[v]
		for l := int(st.lvl) + 1; l < s.levels; l++ {
			phi := 0
			for _, wl := range st.adj {
				if int(wl) < l {
					phi++
				}
			}
			if phi > pow(gamma, l)*cap {
				rise.Found, rise.U, rise.Lvl = true, v, int32(l)
				return cands, rise
			}
		}
	}
	return cands, rise
}

// assertProbesMatchScan requires every shard's shuffle index to be the
// scan's candidate list and its rise reply to be the scan's. It returns
// how many shards had a shuffle candidate.
func assertProbesMatchScan(t *testing.T, m *M, where string) (withCands int) {
	t.Helper()
	for _, s := range m.shards {
		cands, want := scanProbe(s)
		if !slices.Equal(s.shuffle, cands) {
			t.Fatalf("%s: machine %d shuffle index %v, scan %v", where, s.id, s.shuffle, cands)
		}
		if got := s.probe(false); !sameRise(got, want) {
			t.Fatalf("%s: machine %d rise reply %+v, scan %+v", where, s.id, got, want)
		}
		if len(cands) > 0 {
			withCands++
		}
	}
	return withCands
}

// sameRise compares two rise replies by what the scheduler reads of them.
func sameRise(a, b amsg) bool { return a.Found == b.Found && a.U == b.U && a.Lvl == b.Lvl }

// plantRiser gives v deg neighbours at level -1 through setAdj and
// reindexes it: above c·log² n of them, a free v violates the rise
// invariant at level 0.
func plantRiser(s *shard, v int32, deg int) {
	st := s.get(v)
	for w := int32(1); w <= int32(deg); w++ {
		s.setAdj(st, v+w, -1)
	}
	s.reindex(v)
}

// TestProbeMatchesScan: at every quiescent point of random streams, on both
// backends, the indexes answer exactly what the deleted scan answered —
// and a vertex of high degree enters and leaves the rise index as its
// level moves.
func TestProbeMatchesScan(t *testing.T) {
	for _, n := range []int{64, 1024} {
		for _, backend := range []mpc.BackendKind{mpc.BackendSim, mpc.BackendParallel} {
			m, g := New(Config{N: n, Seed: 7, Backend: backend, Workers: 3}), graph.New(n)
			stream := graph.RandomStream(n, 3*n, 0.7, 1, rand.New(rand.NewSource(int64(n))))
			withCands := 0
			for i, b := range graph.Chunk(stream, 8) {
				applyBatch(m, b)
				b.Apply(g)
				withCands += assertProbesMatchScan(t, m, fmt.Sprintf("n=%d %v window %d", n, backend, i))
			}
			if err := m.Validate(g); err != nil {
				t.Fatalf("n=%d %v: %v", n, backend, err)
			}
			m.Close()
			if withCands == 0 {
				t.Fatalf("n=%d %v: no shuffle candidate at any quiescent point", n, backend)
			}
		}
	}

	// n = 1 024: c·log² n = 400, so 401 neighbours at level -1 break the
	// invariant at level 0, and at level 0 the bound to beat is 4·400.
	s := New(Config{N: 1024, Seed: 1}).shards[0]
	plantRiser(s, 0, 401)
	if !slices.Equal(s.rise, []int32{0}) {
		t.Fatalf("free vertex of degree 401: rise index %v", s.rise)
	}
	want := amsg{Kind: aProbeRep, Found: true, U: 0, Lvl: 0}
	if _, scan := scanProbe(s); !sameRise(scan, want) || !sameRise(s.probe(false), want) {
		t.Fatalf("rise reply %+v, scan %+v, want vertex 0 at level 0", s.probe(false), scan)
	}
	s.setLevel(0, 0)
	s.reindex(0)
	if _, scan := scanProbe(s); len(s.rise) != 0 || scan.Found || s.probe(false).Found {
		t.Fatalf("vertex 0 at level 0: rise index %v, scan %+v", s.rise, scan)
	}
	if err := s.auditIndexes(); err != nil {
		t.Fatal(err)
	}
}

// auditedShard audits its probe indexes after every round it runs, so a
// write that skips reindex is caught before a later message naming the same
// vertex repairs it.
type auditedShard struct {
	*shard
	t *testing.T
}

func (a auditedShard) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	a.shard.HandleRound(ctx, inbox)
	if err := a.auditIndexes(); err != nil {
		a.t.Errorf("round %d: %v", ctx.Round(), err)
	}
}

// TestIndexesExactAfterEveryRound drives vertex 0 through every kind of
// index move at n = 1 024, auditing after every handler round: 401 edges to
// matched leaves make it a free riser (its degree moved at owner(V)), a
// both-free insert matches it at level 0 and takes it out (at owner(U), on
// the reply), deleting that edge frees it again (at owner(U)) and its
// rematch lands at a level ≥ 1 — a shuffle member — and deleting every edge
// as V frees it and empties both indexes.
func TestIndexesExactAfterEveryRound(t *testing.T) {
	const n = 1024
	m, g := New(Config{N: n, Seed: 2}), graph.New(n)
	for i, s := range m.shards {
		m.cluster.SetMachine(i+1, auditedShard{s, t})
	}
	sh := m.shards[m.owner(0)-1]
	step := func(ups ...graph.Update) {
		t.Helper()
		applyStream(t, m, g, ups, false)
		if t.Failed() {
			t.FailNow()
		}
	}
	for v := 1; v <= 402; v += 2 {
		step(graph.Update{Op: graph.Insert, U: v, V: v + 1})
	}
	for v := 1; v <= 401; v++ {
		step(graph.Update{Op: graph.Insert, U: v, V: 0})
	}
	if !slices.Equal(sh.rise, []int32{0}) {
		t.Fatalf("free vertex 0 of degree 401: rise index %v", sh.rise)
	}
	step(graph.Update{Op: graph.Insert, U: 0, V: 403})
	if sh.verts[0].mate != 403 || len(sh.rise) != 0 {
		t.Fatalf("vertex 0 matched to %d at level %d, rise index %v", sh.verts[0].mate, sh.verts[0].lvl, sh.rise)
	}
	step(graph.Update{Op: graph.Delete, U: 0, V: 403})
	for i := 0; sh.verts[0].lvl < 1; i++ {
		if i == 1000 {
			t.Fatalf("vertex 0 never rose: level %d, rise index %v", sh.verts[0].lvl, sh.rise)
		}
		step(graph.Update{Op: graph.Insert, U: 500, V: 501}, graph.Update{Op: graph.Delete, U: 500, V: 501})
	}
	if !slices.Contains(sh.shuffle, 0) {
		t.Fatalf("vertex 0 matched at level %d, shuffle index %v", sh.verts[0].lvl, sh.shuffle)
	}
	for _, e := range g.Edges() {
		if e.U == 0 || e.V == 0 {
			step(graph.Update{Op: graph.Delete, U: e.U + e.V, V: 0})
		}
	}
	if len(sh.shuffle) != 0 || len(sh.rise) != 0 {
		t.Fatalf("vertex 0 isolated: shuffle index %v, rise index %v", sh.shuffle, sh.rise)
	}
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestProbeTouchesOnlyIndexed: decoys planted straight into verts, behind
// reindex — matched at level 2 as the smaller endpoint, or free with a
// degree above the rise bound — are what a scan would report; the probe
// reads the indexes only and never reports one, and allocates nothing.
func TestProbeTouchesOnlyIndexed(t *testing.T) {
	s := newShard(1, 1, Config{N: 8, Seed: 1}, 2) // c·log² n = 36
	shuffler := s.get(3000)
	shuffler.mate, shuffler.lvl = 3005, 1
	s.reindex(3000)
	plantRiser(s, 3001, 37)

	decoyAdj := map[int32]int32{}
	for w := int32(0); w < 37; w++ {
		decoyAdj[w] = -1
	}
	for v := int32(1000); v < 1500; v++ {
		s.verts[v] = &vstate{lvl: 2, mate: v + 10000, adj: map[int32]int32{}}
	}
	for v := int32(1500); v < 1510; v++ {
		s.verts[v] = &vstate{lvl: -1, mate: -1, adj: decoyAdj}
	}
	cands, rise := scanProbe(s)
	if len(cands) != 501 || rise.U != 1500 {
		t.Fatalf("a scan would report %d shuffle candidates and riser %d, want 501 and decoy 1500", len(cands), rise.U)
	}
	for i := 0; i < 100; i++ {
		if rep := s.probe(true); !rep.Found || rep.U != 3000 {
			t.Fatalf("shuffle probe %d reported %+v, want the one indexed vertex 3000", i, rep)
		}
		if rep := s.probe(false); !rep.Found || rep.U != 3001 || rep.Lvl != 0 {
			t.Fatalf("rise probe %d reported %+v, want the one indexed vertex 3001", i, rep)
		}
	}
	if got := testing.AllocsPerRun(100, func() { s.probe(true); s.probe(false) }); got != 0 {
		t.Fatalf("a probe allocates %.0f times", got)
	}
}

// footprint is what a reader must leave alone: Σ MemWords, the vertices
// held and both probe indexes of every shard.
func footprint(m *M) string {
	words, held := 0, 0
	var idx [][]int32
	for _, s := range m.shards {
		words += s.MemWords()
		held += len(s.verts)
		idx = append(idx, s.shuffle, s.rise)
	}
	return fmt.Sprint(words, " words, ", held, " vertices held, indexes ", idx)
}

// TestValidateReadsWithoutWriting: the validation oracles used to read
// every vertex through shard.get, creating a vstate (4 billed words and an
// adjacency map) for each vertex never touched — a validated instance
// reported more memory than an unvalidated one.
func TestValidateReadsWithoutWriting(t *testing.T) {
	const n = 1024 // 200 updates: most vertices are never touched
	m, g := New(Config{N: n, Seed: 3}), graph.New(n)
	for _, b := range graph.Chunk(graph.RandomStream(n, 200, 0.55, 1, rand.New(rand.NewSource(3))), 16) {
		applyBatch(m, b)
		b.Apply(g)
	}
	before := footprint(m)
	m.MateTable()
	m.Levels()
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	if after := footprint(m); after != before {
		t.Fatalf("the oracles changed what they read:\nbefore %s\nafter  %s", before, after)
	}
}

// TestEveryAuditTrips corrupts each running summary by one and each probe
// index three ways — a member dropped, a stray (shuffle) or a duplicate
// (rise) added, a flag flipped — and requires Validate to name it. The word counter is audited with
// level-notification jobs half drained, its one multi-step term, and
// reporting memory allocates nothing.
func TestEveryAuditTrips(t *testing.T) {
	const n, riser = 1024, int32(1000)
	build := func() (*M, *graph.Graph) {
		m, g := New(Config{N: n, Seed: 5}), graph.New(n)
		// A star wider than one Δ-bounded tick drains; deleting the centre's
		// matched edge rematches it at level 2 with its 43 free leaves below.
		var ups []graph.Update
		for v := 1; v <= m.cfg.delta+4; v++ {
			ups = append(ups, graph.Update{Op: graph.Insert, U: 0, V: v})
		}
		ups = append(ups, graph.Update{Op: graph.Delete, U: 0, V: 1})
		applyStream(t, m, g, ups, true)
		plantRiser(m.shards[m.owner(int(riser))-1], riser, 401)
		return m, g
	}
	m, _ := build()
	centre, rise := m.shards[m.owner(0)-1], m.shards[m.owner(int(riser))-1]
	if len(centre.jobs) == 0 {
		t.Fatal("no pending level jobs: the audit never saw the job term mid-drain")
	}
	if !slices.Contains(centre.shuffle, 0) || !slices.Equal(rise.rise, []int32{riser}) {
		t.Fatalf("indexes not populated: shuffle %v (level %d), rise %v", centre.shuffle, centre.verts[0].lvl, rise.rise)
	}
	if got := testing.AllocsPerRun(100, func() { centre.MemWords() }); got != 0 {
		t.Fatalf("shard MemWords allocates %.0f times per call", got)
	}

	cases := []struct {
		want    string
		corrupt func(centre, rise *shard)
	}{
		{"shard word counter", func(s, _ *shard) { s.adjEntries++ }},
		{"shard word counter", func(s, _ *shard) { s.jobWords++ }},
		{"shuffle index lists", func(s, _ *shard) { s.shuffle = slices.DeleteFunc(s.shuffle, func(v int32) bool { return v == 0 }) }},
		{"shuffle index lists", func(s, _ *shard) { s.shuffle = append(s.shuffle, n-1) }},
		{"in the shuffle index", func(s, _ *shard) { s.verts[0].inShuffle = false }},
		{"rise index lists", func(_, s *shard) { s.rise = nil }},
		{"rise index lists", func(_, s *shard) { s.rise = append(s.rise, riser) }},
		{"in the rise index", func(_, s *shard) { s.verts[riser].inRise = false }},
	}
	for _, tc := range cases {
		m, g := build()
		if err := m.Validate(g); err != nil {
			t.Fatalf("%s: clean instance fails: %v", tc.want, err)
		}
		tc.corrupt(m.shards[m.owner(0)-1], m.shards[m.owner(int(riser))-1])
		if err := m.Validate(g); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("corrupted %q: Validate returned %v", tc.want, err)
		}
	}
}

var probeSink amsg

// BenchmarkAMMProbe times one shuffle and one rise probe on a shard holding
// 10 and 10⁴ vertices (n = 10⁵, one in ten matched at level 1 as the
// smaller endpoint, none above the rise bound — the benchmarked streams'
// shape). A probe reads the indexes, so the two must be flat; the scan they
// replace sorted and tested every held vertex.
func BenchmarkAMMProbe(b *testing.B) {
	for _, held := range []int{10, 10000} {
		b.Run(fmt.Sprintf("held=%d", held), func(b *testing.B) {
			s := New(Config{N: 100000, Seed: 1}).shards[0]
			for i := 0; i < held; i++ {
				v := int32(i * s.mu)
				st := s.get(v)
				for w := int32(1); w <= 3; w++ {
					s.setAdj(st, v+w, 0)
				}
				if i%10 == 0 {
					st.mate, st.lvl = v+1, 1
				}
				s.reindex(v)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				probeSink = s.probe(true)
				probeSink = s.probe(false)
			}
		})
	}
}
