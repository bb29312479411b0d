package sched

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// deficits snapshots a policy's per-tenant counters (nil policy: nil).
func deficits(f *Fair) map[int]int {
	if f == nil {
		return nil
	}
	return maps.Clone(f.deficit)
}

// packerBudgets are the fuzzed budget classes: unlimited, small enough
// that single claims exceed it, and the S-sized one the cores pack against.
var packerBudgets = []int{0, 16, 64, 1 << 20}

// FuzzPackerEquivalence drives one random tenant-tagged batch to
// completion twice — through the packer's Drive and through the parent
// commit's wave loop over its FirstWaveFair (oracle_test.go) — and
// requires every wave, every tenant deficit after every wave and the
// number of items read to agree. Unlike the one-set equivalence tests this
// sees the second and later waves' top-ups, with fairness on and off.
func FuzzPackerEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, uint8(40), uint8(seed), seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8, budgetSel uint8, fair bool) {
		rng := rand.New(rand.NewSource(seed))
		items := make([]Item, 1+int(n)%96)
		for i := range items {
			items[i] = randTenantItem(rng)
		}
		budget := packerBudgets[int(budgetSel)%len(packerBudgets)]
		var gotFair, wantFair *Fair
		if fair {
			gotFair, wantFair = NewFair(budget, fairWeights), NewFair(budget, fairWeights)
		}
		type step struct {
			wave     []int
			deficits map[int]int
		}
		var got, want []step
		gotReads, wantReads := 0, 0
		NewAdmitterFair(budget, gotFair).Drive(len(items),
			func(i int) Item { gotReads++; return items[i] },
			func(w []int) { got = append(got, step{slices.Clone(w), deficits(gotFair)}) })
		oracleDrive(len(items),
			func(i int) Item { wantReads++; return items[i] }, budget, wantFair,
			func(w []int) { want = append(want, step{slices.Clone(w), deficits(wantFair)}) })
		if len(got) != len(want) {
			t.Fatalf("budget %d fair %v: packer ran %d waves, oracle %d", budget, fair, len(got), len(want))
		}
		for w := range want {
			if !slices.Equal(got[w].wave, want[w].wave) {
				t.Fatalf("budget %d fair %v: wave %d = %v, oracle %v", budget, fair, w, got[w].wave, want[w].wave)
			}
			if !maps.Equal(got[w].deficits, want[w].deficits) {
				t.Fatalf("budget %d fair %v: deficits after wave %d = %v, oracle %v",
					budget, fair, w, got[w].deficits, want[w].deficits)
			}
		}
		if gotReads != wantReads {
			t.Fatalf("budget %d fair %v: packer read %d items, oracle %d", budget, fair, gotReads, wantReads)
		}
	})
}

// TestAdmitterEndpointPrefix pins the endpoint-prefix call pattern (amm's
// §6 injection waves): over items holding both endpoints exclusively,
// Admit until the first refusal takes exactly the longest prefix of
// pairwise endpoint-disjoint updates. These are graph.Batch.DisjointPrefix's
// cases, which this pattern replaced.
func TestAdmitterEndpointPrefix(t *testing.T) {
	a := NewAdmitterFair(0, nil)
	prefix := func(edges [][2]int64) int {
		a.Reset()
		k := 0
		for k < len(edges) && a.Admit(Item{Excl: edges[k][:]}) {
			k++
		}
		return k
	}
	b := [][2]int64{{0, 1}, {2, 3}, {4, 5}, {1, 6} /* shares vertex 1 with the first */, {7, 8}}
	if got := prefix(b); got != 3 {
		t.Fatalf("prefix = %d, want 3", got)
	}
	if got := prefix(b[:2]); got != 2 {
		t.Fatalf("prefix of the first two = %d, want 2", got)
	}
	if got := prefix(b[3:]); got != 2 {
		t.Fatalf("prefix of tail = %d, want 2", got)
	}
	if got := prefix(nil); got != 0 {
		t.Fatalf("prefix of empty = %d, want 0", got)
	}
	// A self-loop names one endpoint twice and still joins an empty set.
	if got := prefix([][2]int64{{3, 3}, {3, 4}}); got != 1 {
		t.Fatalf("prefix after a self-loop = %d, want 1", got)
	}
}

// driveShapes are the batch shapes the allocation gate and BenchmarkDrive
// share: a single-key chain (k singleton waves, the cc-onecomp extreme), a
// disjoint batch (one wave of k) and a random mix.
var driveShapes = []struct {
	name  string
	items func(k int) []Item
}{
	{"chain", func(k int) []Item {
		items := make([]Item, k)
		for i := range items {
			items[i] = Item{Excl: []int64{42}, Shared: []Claim{{Key: 0, Cost: 4}}}
		}
		return items
	}},
	{"disjoint", func(k int) []Item {
		items := make([]Item, k)
		for i := range items {
			items[i] = Item{Excl: []int64{int64(2 * i), int64(2*i + 1)}, Shared: []Claim{{Key: int64(i % 8), Cost: 4}}}
		}
		return items
	}},
	{"mixed", func(k int) []Item {
		rng := rand.New(rand.NewSource(31))
		items := make([]Item, k)
		for i := range items {
			items[i] = randTenantItem(rng)
		}
		return items
	}},
}

// TestPackerZeroAllocs is the steady-state allocation gate: once a packer
// has formed its first waves (claim tables and index buffers grown), a
// whole Drive — every wave of it — allocates nothing.
func TestPackerZeroAllocs(t *testing.T) {
	const k = 256
	for _, shape := range driveShapes[:2] {
		items := shape.items(k)
		item := func(i int) Item { return items[i] }
		exec := func([]int) {}
		a := NewAdmitterFair(1<<12, nil)
		a.Drive(k, item, exec) // first call sizes the packer's buffers
		if allocs := testing.AllocsPerRun(5, func() { a.Drive(k, item, exec) }); allocs != 0 {
			t.Errorf("%s k=%d: %v allocs per Drive after the first, want 0", shape.name, k, allocs)
		}
	}
}

// BenchmarkDrive measures the wave loop by batch shape and size on a
// long-lived packer: ns and allocs per k-op batch, plus items read per op
// (every pending item is re-read between waves, so a chain reads ~k/2
// items per op) — the before-number for making the re-read incremental.
func BenchmarkDrive(b *testing.B) {
	for _, shape := range driveShapes {
		for _, k := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/k=%d", shape.name, k), func(b *testing.B) {
				items := shape.items(k)
				reads := 0
				item := func(i int) Item { reads++; return items[i] }
				exec := func([]int) {}
				a := NewAdmitterFair(1<<12, nil)
				a.Drive(k, item, exec) // size the packer's buffers outside the timer
				reads = 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.Drive(k, item, exec)
				}
				b.ReportMetric(float64(reads)/float64(b.N*k), "items/op")
			})
		}
	}
}
