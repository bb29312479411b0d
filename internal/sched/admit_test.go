package sched

import (
	"math/rand"
	"testing"
)

// randItem draws a random item from a small key universe so conflicts,
// read sharing, budget exhaustion and the occasional Solo all occur.
func randItem(rng *rand.Rand) Item {
	if rng.Intn(20) == 0 {
		return Item{Solo: true}
	}
	var it Item
	for k := 0; k < 1+rng.Intn(2); k++ {
		it.Excl = append(it.Excl, int64(rng.Intn(8)))
	}
	for k := 0; k < rng.Intn(3); k++ {
		it.Read = append(it.Read, int64(8+rng.Intn(4)))
	}
	for k := 0; k < rng.Intn(3); k++ {
		it.Shared = append(it.Shared, Claim{Key: int64(rng.Intn(3)), Cost: 1 + rng.Intn(40)})
	}
	return it
}

// TestAdmitterFirstWaveEquivalence pins incremental admission to the
// whole-slice oracle: the greedy admitted prefix of an item sequence
// (admit until the first refusal) must be exactly the longest prefix P
// such that oracleFirstWave over items[:len(P)] admits every position —
// the streaming and batch views of "these ops can share a wave" may never
// disagree.
func TestAdmitterFirstWaveEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, budget := range []int{0, 16, 64, 1 << 20} {
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(12)
			items := make([]Item, n)
			for i := range items {
				items[i] = randItem(rng)
			}
			a := NewAdmitterFair(budget, nil)
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
			// Every prefix up to the admitted one is a full first wave...
			for p := 1; p <= prefix; p++ {
				wave := oracleFirstWave(items[:p], budget)
				if len(wave) != p {
					t.Fatalf("budget %d: Admit took %d items but oracleFirstWave(items[:%d]) = %v",
						budget, prefix, p, wave)
				}
			}
			// ...and the refused item breaks it.
			if prefix < n {
				wave := oracleFirstWave(items[:prefix+1], budget)
				if len(wave) == prefix+1 {
					t.Fatalf("budget %d: Admit refused item %d but oracleFirstWave admits all of items[:%d]",
						budget, prefix, prefix+1)
				}
			}
		}
	}
}

// TestAdmitterReset pins that Reset empties the set: keys and budget
// usage held by the flushed wave no longer block anything.
func TestAdmitterReset(t *testing.T) {
	a := NewAdmitterFair(10, nil)
	if !a.Admit(Item{Excl: []int64{1}, Shared: []Claim{{Key: 0, Cost: 9}}}) {
		t.Fatal("empty set refused the first item")
	}
	if a.Admit(Item{Excl: []int64{1}}) {
		t.Fatal("conflicting exclusive key admitted")
	}
	if a.Admit(Item{Shared: []Claim{{Key: 0, Cost: 2}}}) {
		t.Fatal("over-budget shared claim admitted")
	}
	a.Reset()
	if a.n != 0 {
		t.Fatalf("%d items in the set after Reset", a.n)
	}
	if !a.Admit(Item{Excl: []int64{1}, Shared: []Claim{{Key: 0, Cost: 10}}}) {
		t.Fatal("Reset did not release the flushed wave's claims")
	}
}

// TestAdmitterSolo pins the Solo rules incrementally: a Solo item joins
// only an empty set, and once in, seals it.
func TestAdmitterSolo(t *testing.T) {
	a := NewAdmitterFair(0, nil)
	if !a.Admit(Item{Solo: true}) {
		t.Fatal("empty set refused a Solo item")
	}
	if a.Admit(Item{}) {
		t.Fatal("zero item joined a Solo-held set")
	}
	a.Reset()
	if !a.Admit(Item{}) {
		t.Fatal("empty set refused the zero item")
	}
	if a.Admit(Item{Solo: true}) {
		t.Fatal("Solo item joined a non-empty set")
	}
}
