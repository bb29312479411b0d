package sched

import (
	"math/rand"
	"slices"
	"testing"
)

// firstWave forms one wave over the whole slice on a fresh packer and
// returns the admitted positions — the packer-side counterpart of
// oracleFirstWaveFair (which likewise tops a non-nil fair up once).
func firstWave(items []Item, budget int, fair *Fair) []int {
	pending := make([]int, len(items))
	for i := range pending {
		pending[i] = i
	}
	wave, _ := NewAdmitterFair(budget, fair).Wave(pending, items)
	return slices.Clone(wave)
}

func exclItems(keys [][]int64) []Item {
	items := make([]Item, len(keys))
	for i, ks := range keys {
		items[i] = Item{Excl: ks}
	}
	return items
}

// TestBuildConflict pins the conflict relation: updates conflict iff their
// exclusive key sets intersect, repeated keys within one update are
// harmless, and the relation is irreflexive and symmetric.
func TestBuildConflict(t *testing.T) {
	keys := [][]int64{
		{1, 2},
		{3, 4},
		{2, 3},
		{5, 5}, // same resource named twice: no self-conflict
		{5, 6},
	}
	cg := BuildConflict(exclItems(keys))
	want := map[[2]int]bool{
		{0, 2}: true, // share 2
		{1, 2}: true, // share 3
		{3, 4}: true, // share 5
	}
	for i := 0; i < cg.N(); i++ {
		if cg.Conflicts(i, i) {
			t.Fatalf("update %d conflicts with itself", i)
		}
		for j := i + 1; j < cg.N(); j++ {
			got := cg.Conflicts(i, j)
			if got != want[[2]int{i, j}] {
				t.Fatalf("Conflicts(%d,%d) = %v, want %v", i, j, got, want[[2]int{i, j}])
			}
			if got != cg.Conflicts(j, i) {
				t.Fatalf("Conflicts(%d,%d) not symmetric", i, j)
			}
		}
	}
}

// TestBuildConflictSolo pins that a Solo item conflicts with every other
// item even with no shared keys.
func TestBuildConflictSolo(t *testing.T) {
	items := []Item{
		{Excl: []int64{1}},
		{Solo: true},
		{Excl: []int64{2}},
	}
	cg := BuildConflict(items)
	for _, pair := range [][2]int{{0, 1}, {1, 2}} {
		if !cg.Conflicts(pair[0], pair[1]) {
			t.Fatalf("solo item does not conflict with %d", pair[0]+pair[1]-1)
		}
	}
	if cg.Conflicts(0, 2) {
		t.Fatal("disjoint non-solo items conflict")
	}
}

// randomItems builds random exclusive- and read-key items, optionally
// sprinkling Solo markers.
func randomItems(rng *rand.Rand, n, nkeys int, soloFrac float64) []Item {
	items := make([]Item, n)
	for i := range items {
		nk := rng.Intn(4) // 0..3 keys, duplicates allowed
		for j := 0; j < nk; j++ {
			items[i].Excl = append(items[i].Excl, int64(rng.Intn(nkeys)))
		}
		nr := rng.Intn(3) // 0..2 read keys, may overlap the exclusive ones
		for j := 0; j < nr; j++ {
			items[i].Read = append(items[i].Read, int64(rng.Intn(nkeys)))
		}
		if rng.Float64() < soloFrac {
			items[i].Solo = true
		}
	}
	return items
}

// TestPrecedenceColorProperties pins the two scheduler obligations on
// random conflict graphs: the coloring is proper (no conflicting pair
// shares a color) and order-preserving (for conflicting i < j, color(i) <
// color(j), so executing color classes in order replays every conflicting
// pair in batch order).
func TestPrecedenceColorProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		items := randomItems(rng, n, 1+rng.Intn(12), 0.1)
		cg := BuildConflict(items)
		colors := cg.PrecedenceColor()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !cg.Conflicts(i, j) {
					continue
				}
				if colors[i] >= colors[j] {
					t.Fatalf("trial %d: conflicting pair (%d,%d) has colors (%d,%d); want color(i) < color(j)",
						trial, i, j, colors[i], colors[j])
				}
			}
		}
		// Tightness: every color c > 0 is forced by an earlier neighbor of
		// color c-1 (the greedy rule takes the minimum feasible color).
		for j, c := range colors {
			if c == 0 {
				continue
			}
			forced := false
			for i := 0; i < j; i++ {
				if colors[i] == c-1 && cg.Conflicts(i, j) {
					forced = true
					break
				}
			}
			if !forced {
				t.Fatalf("trial %d: update %d has color %d with no earlier conflicting neighbor of color %d",
					trial, j, c, c-1)
			}
		}
	}
}

// TestFirstWaveEquivalence pins that the packer with an unlimited budget
// computes exactly the first precedence color class of the materialized
// conflict graph (and what the reference one-pass implementation
// computes), across random key sets including empty key lists and Solo
// items.
func TestFirstWaveEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		items := randomItems(rng, n, 10, 0.15)
		want := BuildConflict(items).Waves()[0]
		got := firstWave(items, 0, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: packer %v, Waves()[0] %v", trial, got, want)
		}
		if ref := oracleFirstWave(items, 0); !slices.Equal(got, ref) {
			t.Fatalf("trial %d: packer %v, oracleFirstWave %v", trial, got, ref)
		}
	}
}

// TestWaves pins the wave grouping: waves partition the batch, each wave is
// an independent set listed in ascending batch order, and waves[0] is
// exactly the set of updates with no earlier conflicting update.
func TestWaves(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(30)
		items := randomItems(rng, n, 8, 0.1)
		cg := BuildConflict(items)
		waves := cg.Waves()
		seen := make([]bool, n)
		for w, wave := range waves {
			if len(wave) == 0 {
				t.Fatalf("trial %d: empty wave %d", trial, w)
			}
			for x := 0; x < len(wave); x++ {
				if seen[wave[x]] {
					t.Fatalf("trial %d: update %d in two waves", trial, wave[x])
				}
				seen[wave[x]] = true
				if x > 0 && wave[x-1] >= wave[x] {
					t.Fatalf("trial %d: wave %d not in ascending batch order: %v", trial, w, wave)
				}
				for y := x + 1; y < len(wave); y++ {
					if cg.Conflicts(wave[x], wave[y]) {
						t.Fatalf("trial %d: wave %d contains conflicting pair (%d,%d)",
							trial, w, wave[x], wave[y])
					}
				}
			}
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("trial %d: update %d in no wave", trial, i)
			}
		}
		inFirst := make(map[int]bool, len(waves[0]))
		for _, i := range waves[0] {
			inFirst[i] = true
		}
		for j := 0; j < n; j++ {
			free := true
			for i := 0; i < j; i++ {
				if cg.Conflicts(i, j) {
					free = false
					break
				}
			}
			if free != inFirst[j] {
				t.Fatalf("trial %d: update %d conflict-free=%v but in waves[0]=%v", trial, j, free, inFirst[j])
			}
		}
	}
}

// TestFirstWaveBudget pins the broadcast-budget packing rule: updates that
// collide only on a shared key pack into one wave until the budget is
// exhausted, an oversized claim still gets the key to itself, and
// exhaustion on one key does not block claimants of other keys.
func TestFirstWaveBudget(t *testing.T) {
	orch := func(key int64, cost int) Item {
		return Item{Shared: []Claim{{Key: key, Cost: cost}}}
	}
	items := []Item{
		orch(1, 40),  // joins: key 1 usage 40
		orch(1, 40),  // joins: 80 = budget
		orch(1, 40),  // blocked: would be 120 > 100
		orch(2, 999), // oversized claim, key 2 unused: joins alone on key 2
		orch(2, 1),   // blocked: key 2 over budget
		orch(3, 10),  // joins: key 3 untouched
	}
	got := firstWave(items, 100, nil)
	want := []int{0, 1, 3, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("wave = %v, want %v", got, want)
	}
	// Unlimited budget packs everything conflict-free.
	if all := firstWave(items, 0, nil); len(all) != len(items) {
		t.Fatalf("unlimited budget wave = %v, want all %d items", all, len(items))
	}
}

// TestFirstWaveExclBlocksLater pins order preservation: an update blocked
// on an exclusive key still claims its keys, so a later update conflicting
// with the *blocked* one cannot jump ahead of it.
func TestFirstWaveExclBlocksLater(t *testing.T) {
	items := []Item{
		{Excl: []int64{1}},
		{Excl: []int64{1, 2}}, // blocked on 1, claims 2
		{Excl: []int64{2}},    // must not jump ahead of 1
	}
	got := firstWave(items, 0, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("wave = %v, want [0]", got)
	}
}

// TestBuildConflictRead pins the read-claim relation: readers of one key
// never conflict with each other, a reader conflicts with every exclusive
// claimant of its key in either batch order, and an item claiming a key
// both ways behaves as an exclusive claimant.
func TestBuildConflictRead(t *testing.T) {
	items := []Item{
		{Read: []int64{1}},                   // 0: reader
		{Read: []int64{1}},                   // 1: reader — no conflict with 0
		{Excl: []int64{1}},                   // 2: writer — conflicts with 0, 1
		{Read: []int64{1}},                   // 3: reader after the writer
		{Excl: []int64{2}, Read: []int64{2}}, // 4: excl subsumes the read
		{Read: []int64{2}},                   // 5: conflicts with 4
	}
	cg := BuildConflict(items)
	want := map[[2]int]bool{
		{0, 2}: true, {1, 2}: true, {2, 3}: true, {4, 5}: true,
	}
	for i := 0; i < cg.N(); i++ {
		if cg.Conflicts(i, i) {
			t.Fatalf("item %d conflicts with itself", i)
		}
		for j := i + 1; j < cg.N(); j++ {
			if got := cg.Conflicts(i, j); got != want[[2]int{i, j}] {
				t.Fatalf("Conflicts(%d,%d) = %v, want %v", i, j, got, want[[2]int{i, j}])
			}
		}
	}
}

// TestFirstWaveReadSharing pins the wave-formation rules for reads: any
// number of readers of one key share a wave, a reader never overtakes a
// conflicting earlier writer, and a blocked reader still blocks later
// writers of its key (order preservation through reads).
func TestFirstWaveReadSharing(t *testing.T) {
	check := func(items []Item, want []int) {
		t.Helper()
		if got := firstWave(items, 0, nil); !slices.Equal(got, want) {
			t.Fatalf("wave = %v, want %v", got, want)
		}
	}
	// Readers pack together; an unrelated writer joins too.
	check([]Item{
		{Read: []int64{1}},
		{Read: []int64{1}},
		{Read: []int64{1}},
		{Excl: []int64{2}},
	}, []int{0, 1, 2, 3})
	// A writer at the head blocks its readers, but not readers of other keys.
	check([]Item{
		{Excl: []int64{1}},
		{Read: []int64{1}},
		{Read: []int64{2}},
	}, []int{0, 2})
	// A blocked reader blocks the later writer of its key: 1 is blocked by
	// 0's write of key 1; 2 writes key 2, which 1 reads — 2 may not jump
	// ahead of 1.
	check([]Item{
		{Excl: []int64{1}},
		{Read: []int64{1, 2}},
		{Excl: []int64{2}},
	}, []int{0})
	// A reader ahead of a writer of its key keeps the writer out of the
	// wave (the read must see pre-write state).
	check([]Item{
		{Read: []int64{1}},
		{Excl: []int64{1}},
	}, []int{0})
}

// TestFirstWaveSolo pins the solo rules: a solo update joins only from
// position 0 and always alone, and blocks everything behind it.
func TestFirstWaveSolo(t *testing.T) {
	if got := firstWave([]Item{{Solo: true}, {}, {}}, 0, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("leading solo: wave = %v, want [0]", got)
	}
	got := firstWave([]Item{{Excl: []int64{1}}, {Solo: true}, {Excl: []int64{2}}}, 0, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("mid-batch solo: wave = %v, want [0]", got)
	}
}

// TestDrive pins the wave loop: every update executes exactly once, waves
// respect the conflict relation computed against live state, batch order is
// preserved among conflicting updates, and progress is guaranteed (a batch
// of all-conflicting updates degenerates to singleton waves in order).
func TestDrive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		items := randomItems(rng, n, 6, 0.1)
		var order []int
		ran := make([]bool, n)
		waves := Drive(n, func(i int) Item { return items[i] }, 0, func(wave []int) {
			if len(wave) == 0 {
				t.Fatalf("trial %d: empty wave", trial)
			}
			for x, i := range wave {
				if ran[i] {
					t.Fatalf("trial %d: update %d executed twice", trial, i)
				}
				ran[i] = true
				if x > 0 && wave[x-1] >= i {
					t.Fatalf("trial %d: wave not in ascending batch order: %v", trial, wave)
				}
			}
			order = append(order, wave...)
		})
		if waves <= 0 {
			t.Fatalf("trial %d: Drive reported %d waves", trial, waves)
		}
		for i, r := range ran {
			if !r {
				t.Fatalf("trial %d: update %d never executed", trial, i)
			}
		}
		// Conflicting pairs keep batch order in the execution sequence.
		cg := BuildConflict(items)
		pos := make([]int, n)
		for p, i := range order {
			pos[i] = p
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if cg.Conflicts(i, j) && pos[i] > pos[j] {
					t.Fatalf("trial %d: conflicting pair (%d,%d) executed out of order", trial, i, j)
				}
			}
		}
	}
	// All-conflicting batch: singleton waves in batch order.
	n := 7
	var order []int
	waves := Drive(n, func(i int) Item { return Item{Excl: []int64{42}} }, 0, func(wave []int) {
		order = append(order, wave...)
	})
	if waves != n {
		t.Fatalf("all-conflicting batch ran in %d waves, want %d", waves, n)
	}
	for i, b := range order {
		if b != i {
			t.Fatalf("all-conflicting batch order %v, want identity", order)
		}
	}
}
