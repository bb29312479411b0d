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

// toyState is FuzzPackerEquivalence's live state: cells carry labels, and
// a label op's item names the labels of its two cells — as dyncon's names
// the component labels of its endpoints — so executing ops re-keys the ones
// still pending. It keeps the package comment's contract by construction:
// an item is computed from the labels of the op's own cells only, all of
// which it names, and executing a non-Stable item relabels only cells
// carrying one of its exclusive keys (a Solo may relabel anything).
type toyState struct {
	label []int64
	hot   []bool // per cell; prices a merge without moving its keys
	ops   []toyOp
}

type toyOp struct {
	kind   int
	a, b   int  // cells
	stable bool // for the kinds that may be either
	static Item // toyConst: the whole item; otherwise its Shared and Tenant
}

const (
	toyConst    = iota // a constant item, blind to the labels
	toyMerge           // holds both labels; relabels b's cells to a's label, flips hot[a]
	toySplit           // holds a's label, reads b's; moves cell a to a fresh label
	toyHold            // holds both labels, Stable: changes nothing
	toyRead            // reads both labels
	toySolo            // Solo; swaps the two cells' labels unless Stable
	toyCondSolo        // Solo while a's label is a multiple of 3, else a toyMerge
	toyKinds
)

const toyCells = 10

// newToyState scripts n ops: labelThirds in three are label ops, the rest
// the constant items the packer tests have always used.
func newToyState(rng *rand.Rand, n, labelThirds int) *toyState {
	s := &toyState{label: make([]int64, toyCells), hot: make([]bool, toyCells), ops: make([]toyOp, n)}
	for c := range s.label {
		s.label[c] = int64(c % 6) // cells start out sharing labels, and labels collide with the constant items' keys
	}
	for i := range s.ops {
		op := toyOp{static: randTenantItem(rng), a: rng.Intn(toyCells), b: rng.Intn(toyCells), stable: rng.Intn(2) == 0}
		if rng.Intn(3) < labelThirds {
			op.kind = 1 + rng.Intn(toyKinds-1)
		}
		s.ops[i] = op
	}
	return s
}

func (s *toyState) clone() *toyState {
	return &toyState{label: slices.Clone(s.label), hot: slices.Clone(s.hot), ops: s.ops}
}

func (s *toyState) item(i int) Item {
	op := &s.ops[i]
	la, lb := s.label[op.a], s.label[op.b]
	it := Item{Shared: op.static.Shared, Tenant: op.static.Tenant}
	merge := func() {
		it.Excl = []int64{la, lb}
		if la != lb || s.hot[op.a] { // the "broadcast": the cost moves with the state too
			it.Shared = append(slices.Clone(it.Shared), Claim{Key: 0, Cost: 24})
		}
	}
	switch op.kind {
	case toyConst:
		return op.static
	case toyMerge:
		merge()
	case toySplit:
		it.Excl, it.Read = []int64{la}, []int64{lb}
	case toyHold:
		it.Excl, it.Stable = []int64{la, lb}, true
	case toyRead:
		it.Read, it.Stable = []int64{la, lb}, op.stable
	case toySolo:
		it.Solo, it.Stable = true, op.stable
	case toyCondSolo:
		if la%3 == 0 {
			it.Solo = true
		} else {
			merge()
		}
	}
	return it
}

// exec applies a wave to the labels. Wave members hold disjoint exclusive
// keys, so their relabelings commute and the order within a wave is moot.
func (s *toyState) exec(wave []int) {
	for _, i := range wave {
		op := &s.ops[i]
		la, lb := s.label[op.a], s.label[op.b]
		kind := op.kind
		if kind == toyCondSolo {
			kind = toyMerge
			if la%3 == 0 {
				kind = toySolo
			}
		}
		switch kind {
		case toyMerge:
			s.hot[op.a] = !s.hot[op.a]
			for c, l := range s.label {
				if l == lb {
					s.label[c] = la
				}
			}
		case toySplit:
			s.label[op.a] = int64(1000 + i)
		case toySolo:
			if op.kind == toyCondSolo || !op.stable {
				s.label[op.a], s.label[op.b] = lb, la
			}
		}
	}
}

// FuzzPackerEquivalence drives one random tenant-tagged batch to
// completion twice — through the packer's incremental Drive and through the
// parent commit's wave loop over its FirstWaveFair (oracle_test.go), which
// re-reads every pending item before every wave — each over its own copy of
// a live toyState, and requires every wave and every tenant deficit after
// every wave to agree, and the packer never to read more items than the
// oracle. Unlike the one-set equivalence tests this sees the second and
// later waves' top-ups, with fairness on and off, and — from n = 96 up —
// items that move under the packer as waves execute.
func FuzzPackerEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, uint8(40), uint8(seed), seed%2 == 0)
		f.Add(seed, uint8(96+60), uint8(seed), seed%2 == 0)  // label ops and constant items
		f.Add(seed, uint8(192+60), uint8(seed), seed%2 == 1) // label ops only
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8, budgetSel uint8, fair bool) {
		rng := rand.New(rand.NewSource(seed))
		gotState := newToyState(rng, 1+int(n)%96, []int{0, 2, 3}[int(n)/96])
		wantState := gotState.clone()
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
		NewAdmitterFair(budget, gotFair).Drive(len(gotState.ops),
			func(i int) Item { gotReads++; return gotState.item(i) },
			func(w []int) { got = append(got, step{slices.Clone(w), deficits(gotFair)}); gotState.exec(w) })
		oracleDrive(len(wantState.ops),
			func(i int) Item { wantReads++; return wantState.item(i) }, budget, wantFair,
			func(w []int) { want = append(want, step{slices.Clone(w), deficits(wantFair)}); wantState.exec(w) })
		for w := range min(len(got), len(want)) {
			if !slices.Equal(got[w].wave, want[w].wave) {
				t.Fatalf("budget %d fair %v: wave %d = %v, oracle %v", budget, fair, w, got[w].wave, want[w].wave)
			}
			if !maps.Equal(got[w].deficits, want[w].deficits) {
				t.Fatalf("budget %d fair %v: deficits after wave %d = %v, oracle %v",
					budget, fair, w, got[w].deficits, want[w].deficits)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("budget %d fair %v: packer ran %d waves, oracle %d", budget, fair, len(got), len(want))
		}
		if gotReads > wantReads {
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

// chainItems is k ops holding one key: k singleton waves.
func chainItems(k int, stable bool) []Item {
	items := make([]Item, k)
	for i := range items {
		items[i] = Item{Excl: []int64{42}, Shared: []Claim{{Key: 0, Cost: 4}}, Stable: stable}
	}
	return items
}

// driveShapes are the batch shapes the allocation gate and BenchmarkDrive
// share: a single-key chain whose every wave dirties the key (cc-onecomp's
// set-up: link after link into one component), a disjoint batch (one wave
// of k), the same chain of Stable ops (cc-onecomp's measured churn: nothing
// is ever re-read) and a random mix.
var driveShapes = []struct {
	name  string
	items func(k int) []Item
}{
	{"chain", func(k int) []Item { return chainItems(k, false) }},
	{"disjoint", func(k int) []Item {
		items := make([]Item, k)
		for i := range items {
			items[i] = Item{Excl: []int64{int64(2 * i), int64(2*i + 1)}, Shared: []Claim{{Key: int64(i % 8), Cost: 4}}}
		}
		return items
	}},
	{"chain-stable", func(k int) []Item { return chainItems(k, true) }},
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
	for _, shape := range driveShapes[:3] {
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

// TestDriveItemsRead pins what the index buys per shape: a chain of Stable
// ops is read exactly once per op however many waves it takes, and no shape
// reads more than the oracle's re-read of every pending item before every
// wave (which the dirty chain, re-reading its one key's queue after each
// wave, still needs in full).
func TestDriveItemsRead(t *testing.T) {
	const k = 256
	for _, shape := range driveShapes {
		items := shape.items(k)
		got, want := 0, 0
		waves := NewAdmitterFair(1<<12, nil).Drive(k, func(i int) Item { got++; return items[i] }, func([]int) {})
		wantWaves := oracleDrive(k, func(i int) Item { want++; return items[i] }, 1<<12, nil, func([]int) {})
		if waves != wantWaves {
			t.Errorf("%s: %d waves, oracle %d", shape.name, waves, wantWaves)
		}
		if got > want {
			t.Errorf("%s: read %d items, oracle %d", shape.name, got, want)
		}
		if shape.name == "chain-stable" && (got != k || waves != k) {
			t.Errorf("chain-stable: read %d items in %d waves, want %d in %d", got, waves, k, k)
		}
	}
}

// BenchmarkDrive measures the wave loop by batch shape and size on a
// long-lived packer: ns and allocs per k-op batch, plus items read per op
// (a chain whose waves dirty its key re-reads ~k/2 items per op, a Stable
// one reads each item once).
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
