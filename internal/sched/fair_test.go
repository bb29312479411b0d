package sched

import (
	"math/rand"
	"slices"
	"testing"
)

// fairWeights is the tenant-weight table the randomized fair tests run
// under; randTenantItem draws tenants from a slightly wider universe so
// unconfigured tenants (defaulting to weight 1) are exercised too.
var fairWeights = map[int]int{0: 2, 1: 1, 2: 3}

func randTenantItem(rng *rand.Rand) Item {
	it := randItem(rng)
	it.Tenant = rng.Intn(4) // tenant 3 has no configured weight
	return it
}

// TestFirstWaveFairNil pins that a packer with a nil Fair is bit-identical
// to plain first-fit packing (both oracle spellings) whatever the tenant
// tags say.
func TestFirstWaveFairNil(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		items := make([]Item, n)
		for i := range items {
			items[i] = randTenantItem(rng)
		}
		for _, budget := range []int{0, 16, 64} {
			got := firstWave(items, budget, nil)
			a := oracleFirstWave(items, budget)
			b := oracleFirstWaveFair(items, budget, nil)
			if !slices.Equal(got, a) || !slices.Equal(got, b) {
				t.Fatalf("budget %d: packer(nil)=%v oracleFirstWave=%v oracleFirstWaveFair(nil)=%v", budget, got, a, b)
			}
		}
	}
}

// TestFirstWaveFairThrottlesTenant pins the deficit mechanics: a tenant
// that has spent its quantum is refused for the rest of the wave while
// another tenant's non-conflicting item still joins — weighted fair
// packing instead of first-fit.
func TestFirstWaveFairThrottlesTenant(t *testing.T) {
	// budget 100, equal weights: each tenant's quantum is 50 words/wave.
	fair := NewFair(100, map[int]int{1: 1, 2: 1})
	items := []Item{
		{Tenant: 1, Shared: []Claim{{Key: 10, Cost: 40}}},
		{Tenant: 1, Shared: []Claim{{Key: 11, Cost: 40}}}, // deficit 10 < 40: throttled
		{Tenant: 1, Shared: []Claim{{Key: 12, Cost: 40}}}, // throttled
		{Tenant: 2, Shared: []Claim{{Key: 13, Cost: 40}}}, // own deficit 50: joins
	}
	wave := firstWave(items, 100, fair)
	if len(wave) != 2 || wave[0] != 0 || wave[1] != 3 {
		t.Fatalf("fair wave = %v, want [0 3] (tenant 1 throttled after one 40-word op)", wave)
	}
	// First-fit would have taken all four: the keys are distinct and each
	// claim fits its key's budget.
	if ff := firstWave(items, 100, nil); len(ff) != 4 {
		t.Fatalf("first-fit control wave = %v, want all 4", ff)
	}
}

// TestFairRollForward pins the deficit-round-robin roll-forward: an
// idle tenant's unused share accumulates across waves, capped at one
// full budget.
func TestFairRollForward(t *testing.T) {
	fair := NewFair(100, map[int]int{1: 1, 2: 1})
	for w := 0; w < 5; w++ {
		fair.beginWave()
	}
	if d := fair.deficit[1]; d != 100 {
		t.Fatalf("idle tenant deficit = %d after 5 waves, want capped at budget 100", d)
	}
	// The banked share is spendable at once: two 50-word ops in one wave,
	// where a single 50-word quantum would have allowed only one.
	items := []Item{
		{Tenant: 2, Shared: []Claim{{Key: 20, Cost: 1}}},
		{Tenant: 1, Shared: []Claim{{Key: 21, Cost: 50}}},
		{Tenant: 1, Shared: []Claim{{Key: 22, Cost: 50}}},
	}
	wave := firstWave(items, 100, fair)
	if len(wave) != 3 {
		t.Fatalf("banked deficit not spendable: wave = %v, want [0 1 2]", wave)
	}
}

// TestFirstWaveFairPreservesOrdering pins the fairness invariant: a
// tenant-throttled item records its exclusive claims exactly like a
// budget-refused one, so an op that conflicts with it cannot overtake
// it — fairness reshapes wave packing, never conflicting-op order.
func TestFirstWaveFairPreservesOrdering(t *testing.T) {
	fair := NewFair(100, map[int]int{1: 1, 2: 1})
	items := []Item{
		{Tenant: 1, Shared: []Claim{{Key: 10, Cost: 45}}},
		{Tenant: 1, Excl: []int64{5}, Shared: []Claim{{Key: 11, Cost: 10}}}, // throttled (deficit 5)
		{Tenant: 2, Excl: []int64{5}},                                       // conflicts with the throttled op
	}
	wave := firstWave(items, 100, fair)
	if len(wave) != 1 || wave[0] != 0 {
		t.Fatalf("wave = %v, want [0]: op 2 must stay behind the throttled op 1 it conflicts with", wave)
	}
}

// TestFirstWaveFairProgress pins the position-0 borrowing rule: the
// first item of a wave joins even when its cost exceeds its tenant's
// whole deficit (the deficit goes negative and is repaid from future
// quanta), so a fair scheduler loop always makes progress.
func TestFirstWaveFairProgress(t *testing.T) {
	fair := NewFair(100, map[int]int{1: 1, 2: 99}) // tenant 1 quantum: 1 word
	items := []Item{{Tenant: 1, Shared: []Claim{{Key: 10, Cost: 90}}}}
	if wave := firstWave(items, 100, fair); len(wave) != 1 {
		t.Fatalf("wave = %v: position 0 must always join", wave)
	}
	if d := fair.deficit[1]; d >= 0 {
		t.Fatalf("deficit = %d, want negative (borrowed against future quanta)", d)
	}
	// Solo from position 0 likewise joins and is charged the full budget.
	fair2 := NewFair(100, map[int]int{1: 1, 2: 99})
	if wave := firstWave([]Item{{Tenant: 1, Solo: true}}, 100, fair2); len(wave) != 1 {
		t.Fatalf("solo wave = %v: position 0 must always join", wave)
	}
	if d := fair2.deficit[1]; d != 1-100 {
		t.Fatalf("solo deficit = %d, want %d (charged the whole budget)", d, 1-100)
	}
}

// TestDriveFairCompletes pins that fairness only delays ops, never
// drops them: a fair packer's Drive executes every index exactly once,
// and a nil-fair packer's matches the package-level Drive wave for wave.
func TestDriveFairCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(16)
		items := make([]Item, n)
		for i := range items {
			items[i] = randTenantItem(rng)
		}
		item := func(i int) Item { return items[i] }
		fair := NewFair(64, fairWeights)
		seen := make([]int, n)
		waves := NewAdmitterFair(64, fair).Drive(n, item, func(wave []int) {
			if len(wave) == 0 {
				t.Fatal("empty wave: no progress")
			}
			for _, b := range wave {
				seen[b]++
			}
		})
		if waves < 1 {
			t.Fatalf("waves = %d", waves)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("op %d executed %d times", i, c)
			}
		}
		// nil fair must be Drive exactly.
		var a, b [][]int
		NewAdmitterFair(64, nil).Drive(n, item, func(w []int) { a = append(a, append([]int(nil), w...)) })
		Drive(n, item, 64, func(w []int) { b = append(b, append([]int(nil), w...)) })
		if len(a) != len(b) {
			t.Fatalf("nil-fair packer waves %v != Drive waves %v", a, b)
		}
		for i := range a {
			if !slices.Equal(a[i], b[i]) {
				t.Fatalf("nil-fair packer waves %v != Drive waves %v", a, b)
			}
		}
	}
}

// TestAdmitterFirstWaveFairEquivalence extends the incremental-vs-
// whole-slice invariant to the fair path: with identical weight tables,
// the greedy admitted prefix must be exactly the longest prefix that
// oracleFirstWaveFair (over a fresh Fair with the same configuration)
// admits in full, and the refused item must break it. The streaming and
// batch views of fair packing may never disagree. (One set only: the
// second wave's top-up is FuzzPackerEquivalence's job.)
func TestAdmitterFirstWaveFairEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, budget := range []int{16, 64, 1 << 20} {
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(12)
			items := make([]Item, n)
			for i := range items {
				items[i] = randTenantItem(rng)
			}
			a := NewAdmitterFair(budget, NewFair(budget, fairWeights))
			prefix := 0
			for _, it := range items {
				if !a.Admit(it) {
					break
				}
				prefix++
			}
			if a.n != prefix {
				t.Fatalf("budget %d: %d items in the set after %d admits", budget, a.n, prefix)
			}
			if prefix == 0 {
				t.Fatalf("budget %d: empty set refused an item (%+v)", budget, items[0])
			}
			for p := 1; p <= prefix; p++ {
				wave := oracleFirstWaveFair(items[:p], budget, NewFair(budget, fairWeights))
				if len(wave) != p {
					t.Fatalf("budget %d: Admit took %d items but oracleFirstWaveFair(items[:%d]) = %v",
						budget, prefix, p, wave)
				}
			}
			if prefix < n {
				wave := oracleFirstWaveFair(items[:prefix+1], budget, NewFair(budget, fairWeights))
				if len(wave) == prefix+1 {
					t.Fatalf("budget %d: Admit refused item %d but oracleFirstWaveFair admits all of items[:%d]",
						budget, prefix, prefix+1)
				}
			}
		}
	}
}
