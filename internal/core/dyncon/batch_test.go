package dyncon

import (
	"math/rand"
	"sort"
	"testing"

	"dmpc/internal/graph"
)

func forestKey(d *D) []graph.WEdge {
	out := d.ForestEdges()
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// TestBatchEquivalence pins the wave-concurrent batch pipeline: applying a
// stream in batches of k yields exactly the forest and component labeling
// of sequential application, in both CC and exact-MST modes.
func TestBatchEquivalence(t *testing.T) {
	type mode struct {
		name string
		cfg  Config
	}
	const n = 40
	modes := []mode{
		{"cc", Config{N: n, Mode: CC, ExpectedEdges: 200}},
		{"mst", Config{N: n, Mode: MST, Eps: 0, ExpectedEdges: 200}},
	}
	for _, md := range modes {
		for _, k := range []int{1, 8, 32} {
			rng := rand.New(rand.NewSource(17))
			stream := graph.RandomStream(n, 220, 0.55, 40, rng)

			seqD := New(md.cfg)
			for _, up := range stream {
				applyUpdate(seqD, up)
			}

			batD := New(md.cfg)
			batD.AuditClaims(t.Fatalf)
			g := graph.New(n)
			for _, b := range graph.Chunk(stream, k) {
				st := applyBatch(batD, b)
				if st.Ops != len(b) || st.Rounds == 0 {
					t.Fatalf("%s k=%d: bad batch stats %+v", md.name, k, st)
				}
				b.Apply(g)
				if err := batD.Validate(); err != nil {
					t.Fatalf("%s k=%d: invariants broken after batch: %v", md.name, k, err)
				}
			}

			wantF, gotF := forestKey(seqD), forestKey(batD)
			if len(wantF) != len(gotF) {
				t.Fatalf("%s k=%d: forest sizes differ: %d vs %d", md.name, k, len(gotF), len(wantF))
			}
			for i := range wantF {
				if wantF[i] != gotF[i] {
					t.Fatalf("%s k=%d: forest edge %d differs: %v vs %v", md.name, k, i, gotF[i], wantF[i])
				}
			}
			for v := 0; v < n; v++ {
				if seqD.CompOf(v) != batD.CompOf(v) {
					t.Fatalf("%s k=%d: component of %d differs: %d vs %d",
						md.name, k, v, batD.CompOf(v), seqD.CompOf(v))
				}
			}
			comp := graph.Components(g)
			labels := make([]int, n)
			for v := 0; v < n; v++ {
				labels[v] = int(batD.CompOf(v))
			}
			if !graph.SameLabeling(labels, comp) {
				t.Fatalf("%s k=%d: labels do not partition like the oracle", md.name, k)
			}
			if md.name == "mst" && batD.ForestWeight() != graph.MSFWeight(g) {
				t.Fatalf("mst k=%d: forest weight %d, oracle %d", k, batD.ForestWeight(), graph.MSFWeight(g))
			}
			if v := batD.Cluster().Stats().Violations; v != 0 {
				t.Fatalf("%s k=%d: %d cluster constraint violations", md.name, k, v)
			}
		}
	}
}

// Frozen figures of the PR 1 greedy-prefix wave packer (each wave the
// longest prefix of the remaining updates with pairwise-disjoint endpoint
// components and distinct orchestrators), which the conflict-graph
// scheduler replaced. The packer itself is gone; these were measured once
// on the streams below at commit 9b25edb, the last one that carried it,
// and are the bar the scheduler must stay at or under.
const (
	prefixPackerRoundsSeed19 = 733 // n=40, 200 updates, k=16: 3.665 rounds/update
	prefixPackerRoundsSeed3  = 556 // n=96, 256 updates, k=64: 2.172 rounds/update
	prefixPackerWavesSeed3   = 94
	prefixPackerWidestSeed3  = 6
)

// TestPrefixPackerEquivalence pins, on the stream the greedy-prefix packer
// was last checked on, that the wave scheduler still produces the
// sequential forest and labeling — and does so in no more rounds than the
// packer needed.
func TestPrefixPackerEquivalence(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(19))
	stream := graph.RandomStream(n, 200, 0.55, 40, rng)

	seqD := New(Config{N: n, Mode: CC, ExpectedEdges: 200})
	for _, up := range stream {
		applyUpdate(seqD, up)
	}
	batD := New(Config{N: n, Mode: CC, ExpectedEdges: 200})
	rounds := 0
	for _, b := range graph.Chunk(stream, 16) {
		rounds += applyBatch(batD, b).Rounds
	}
	if rounds > prefixPackerRoundsSeed19 {
		t.Fatalf("wave scheduler spent %d rounds, above the prefix packer's %d", rounds, prefixPackerRoundsSeed19)
	}
	wantF, gotF := forestKey(seqD), forestKey(batD)
	if len(wantF) != len(gotF) {
		t.Fatalf("forest sizes differ: %d vs %d", len(gotF), len(wantF))
	}
	for i := range wantF {
		if wantF[i] != gotF[i] {
			t.Fatalf("forest edge %d differs: %v vs %v", i, gotF[i], wantF[i])
		}
	}
	for v := 0; v < n; v++ {
		if seqD.CompOf(v) != batD.CompOf(v) {
			t.Fatalf("component of %d differs: %d vs %d", v, batD.CompOf(v), seqD.CompOf(v))
		}
	}
}

// TestConflictShardingBeatsPrefix pins the conflict-graph scheduler's win:
// on a random workload at k=64 it packs wider waves than the greedy-prefix
// packer did, so it spends strictly fewer rounds for the same batch
// semantics — and records the per-wave attribution that proves it.
func TestConflictShardingBeatsPrefix(t *testing.T) {
	const n = 96
	rng := rand.New(rand.NewSource(3))
	stream := graph.RandomStream(n, 256, 0.55, 1, rng)
	d := New(Config{N: n, Mode: CC, ExpectedEdges: 5 * n})
	rounds, waves, widest := 0, 0, 0
	for _, b := range graph.Chunk(stream, 64) {
		_, st := d.ApplyOps(graph.UpdateOps(b))
		covered := 0
		for _, w := range st.Waves {
			waves++
			widest = max(widest, w.Updates)
			covered += w.Updates
		}
		if covered != st.Updates.Ops {
			t.Fatalf("waves cover %d updates, batch has %d", covered, st.Updates.Ops)
		}
		rounds += st.Rounds()
	}
	if rounds >= prefixPackerRoundsSeed3 {
		t.Fatalf("conflict sharding did not beat prefix packing: %d vs %d rounds", rounds, prefixPackerRoundsSeed3)
	}
	if waves >= prefixPackerWavesSeed3 {
		t.Fatalf("conflict sharding did not reduce wave count: %d vs %d waves", waves, prefixPackerWavesSeed3)
	}
	if widest <= prefixPackerWidestSeed3 {
		t.Fatalf("widest sharded wave %d not wider than widest prefix wave %d", widest, prefixPackerWidestSeed3)
	}
}

// TestBatchAmortizedRoundsDrop pins the batching win for §5: waves of
// component-disjoint updates share their round window, so amortized rounds
// per update fall as the batch grows.
func TestBatchAmortizedRoundsDrop(t *testing.T) {
	const n = 96
	perUpdate := func(k int) float64 {
		rng := rand.New(rand.NewSource(3))
		stream := graph.RandomStream(n, 256, 0.55, 1, rng)
		d := New(Config{N: n, Mode: CC, ExpectedEdges: 5 * n})
		rounds, updates := 0, 0
		for _, b := range graph.Chunk(stream, k) {
			st := applyBatch(d, b)
			rounds += st.Rounds
			updates += st.Ops
		}
		return float64(rounds) / float64(updates)
	}
	r1, r64 := perUpdate(1), perUpdate(64)
	if r64 >= r1 {
		t.Fatalf("amortized rounds/update did not drop: k=1 %.2f, k=64 %.2f", r1, r64)
	}
}

// TestStableClaims pins which ops Drive may skip re-reading after, by the
// trap that separates the modes: [Del e, Ins e] on a present non-tree edge.
// In CC the pending insert prices the same before and after the delete (a
// non-tree add either way), so the delete is Stable; in MST it reads as a
// duplicate until the delete runs and as a cycle-check broadcast after, so
// the delete is not — and the AuditClaims check, on, would catch a packer
// working from the stale duplicate.
func TestStableClaims(t *testing.T) {
	for _, md := range []struct {
		mode   Mode
		stable bool
	}{{CC, true}, {MST, false}} {
		d := New(Config{N: 4, Mode: md.mode})
		d.AuditClaims(t.Fatalf)
		applyBatch(d, graph.Batch{
			{Op: graph.Insert, U: 0, V: 1, W: 1},
			{Op: graph.Insert, U: 1, V: 2, W: 2},
			{Op: graph.Insert, U: 0, V: 2, W: 9}, // closes the triangle: non-tree in both modes
		})
		delE, insE := graph.OpDel(0, 2), graph.OpIns(0, 2, 9)
		if got := d.StreamItem(delE).Stable; got != md.stable {
			t.Errorf("mode %v: non-tree delete Stable = %v, want %v", md.mode, got, md.stable)
		}
		before := d.StreamItem(insE).Shared[0].Cost
		d.ApplyOps([]graph.Op{delE, insE, graph.OpQConnected(0, 2)})
		if err := d.Validate(); err != nil {
			t.Fatalf("mode %v: %v", md.mode, err)
		}
		d.ApplyOps([]graph.Op{delE})
		if after := d.StreamItem(insE).Shared[0].Cost; (after == before) != md.stable {
			t.Errorf("mode %v: re-insert priced %d with the edge present, %d without", md.mode, before, after)
		}
		for _, op := range []graph.Op{graph.OpQConnected(0, 1), graph.OpSetW(1, 5)} {
			if !d.StreamItem(op).Stable {
				t.Errorf("mode %v: %v not Stable", md.mode, op)
			}
		}
	}
}
