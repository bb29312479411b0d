package graph

import (
	"cmp"
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

// TestArrivalHeapOrder pins the heap's ordering contract: ascending At,
// with simultaneous arrivals popping in input order.
func TestArrivalHeapOrder(t *testing.T) {
	arr := []Arrival{
		{At: 5, Op: OpIns(0, 1, 1)},
		{At: 1, Op: OpIns(1, 2, 1)},
		{At: 5, Op: OpDel(0, 1)},
		{At: 0, Op: OpQConnected(0, 1)},
		{At: 1, Op: OpIns(2, 3, 1)},
	}
	h := NewArrivalHeap(arr)
	wantIdx := []int{3, 1, 4, 0, 2}
	for _, wi := range wantIdx {
		if h.Len() == 0 {
			t.Fatal("heap drained early")
		}
		got := h.Pop()
		if got != arr[wi] {
			t.Fatalf("popped %+v, want %+v", got, arr[wi])
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap holds %d arrivals after draining", h.Len())
	}
}

// refQueue is the container/heap reading of ArrivalHeap's order, the
// reference TestArrivalHeapMatchesContainerHeap holds the typed sifts to.
type refQueue []arrivalEntry

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].before(q[j]) }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(arrivalEntry)) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// TestArrivalHeapMatchesContainerHeap replays random schedules with most
// At values tied through ArrivalHeap and through container/heap over the
// same entries: every pop must be the same arrival.
func TestArrivalHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		arr := make([]Arrival, rng.Intn(96))
		for i := range arr {
			arr[i] = Arrival{At: int64(rng.Intn(5)), Op: OpIns(i, i+1, 1)}
		}
		h := NewArrivalHeap(arr)
		ref := make(refQueue, len(arr))
		for i, a := range arr {
			ref[i] = arrivalEntry{a: a, seq: i}
		}
		heap.Init(&ref)
		for step := 0; ref.Len() > 0; step++ {
			if got, want := h.Pop(), heap.Pop(&ref).(arrivalEntry).a; got != want {
				t.Fatalf("trial %d pop %d: popped %+v, container/heap pops %+v", trial, step, got, want)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("trial %d: %d arrivals left after the reference drained", trial, h.Len())
		}
	}
}

// TestArrivalHeapAllocs pins that a Pop allocates nothing.
func TestArrivalHeapAllocs(t *testing.T) {
	const runs = 1000
	arr := make([]Arrival, runs+1) // AllocsPerRun makes one warm-up call
	for i := range arr {
		arr[i] = Arrival{At: int64(i % 7), Op: OpIns(i, i+1, 1)}
	}
	h := NewArrivalHeap(arr)
	if avg := testing.AllocsPerRun(runs, func() { h.Pop() }); avg != 0 {
		t.Errorf("Pop allocates %.2f times, want 0", avg)
	}
}

// TestArrivalHeapTieStability is the property test behind the
// position-stable rule: for random schedules dense with tied timestamps,
// the pop order must equal a stable sort of the schedule by At, i.e.
// equal-At arrivals always pop in input order.
func TestArrivalHeapTieStability(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		// Draw timestamps from a tiny universe so most arrivals tie; encode
		// the input position in the op so stability is observable.
		arr := make([]Arrival, 1+rng.Intn(64))
		for i := range arr {
			arr[i] = Arrival{At: int64(rng.Intn(4)), Op: OpIns(i, i+1, 1)}
		}
		want := slices.Clone(arr)
		slices.SortStableFunc(want, func(a, b Arrival) int { return cmp.Compare(a.At, b.At) })
		h := NewArrivalHeap(arr)
		for i, w := range want {
			if got := h.Pop(); got != w {
				t.Fatalf("trial %d pop %d: got {at=%d idx=%d}, stable sort wants {at=%d idx=%d}",
					trial, i, got.At, got.Op.U, w.At, w.Op.U)
			}
		}
	}
}

// TestArrivalGenerators pins the three schedule shapes: all-zero,
// non-decreasing Poisson, and the bursty within/between pattern.
func TestArrivalGenerators(t *testing.T) {
	ops := make([]Op, 10)
	for i := range ops {
		ops[i] = OpIns(i, i+1, 1)
	}
	for i, a := range ArrivalsNow(ops) {
		if a.At != 0 || a.Op != ops[i] {
			t.Fatalf("ArrivalsNow[%d] = %+v", i, a)
		}
	}
	rng := rand.New(rand.NewSource(1))
	prev := int64(0)
	for i, a := range PoissonArrivals(ops, 8, rng) {
		if a.At < prev {
			t.Fatalf("PoissonArrivals[%d] regresses: %d after %d", i, a.At, prev)
		}
		prev = a.At
	}
	arr := BurstyArrivals(ops, 4, 0, 50)
	for i, a := range arr {
		want := int64(i/4) * 50
		if a.At != want {
			t.Fatalf("BurstyArrivals[%d].At = %d, want %d", i, a.At, want)
		}
	}
}

// TestFuzzArrivalsAlignment pins the 4-byte decoding against FuzzOps:
// the op sequence must be exactly what FuzzOps would decode from the
// same records, timestamps must be non-decreasing, and the well-formed
// filter must drop a dropped op's gap with it (the next surviving op's
// gap is its own, not an accumulation artifact).
func TestFuzzArrivalsAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	qk := []OpKind{OpConnected, OpComponentOf}
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, rng.Intn(160))
		rng.Read(data)
		for _, wf := range []bool{false, true} {
			arr := FuzzArrivals(data, 8, 1, qk, wf)
			// Project the same records through the 3-byte decoder.
			var recs []byte
			for i := 0; i+3 < len(data); i += 4 {
				recs = append(recs, data[i], data[i+1], data[i+2])
			}
			ops := FuzzOps(recs, 8, 1, qk, wf)
			if len(ops) != len(arr) {
				t.Fatalf("wf=%v: %d arrivals vs %d ops", wf, len(arr), len(ops))
			}
			prev := int64(0)
			for i, a := range arr {
				if a.Op != ops[i] {
					t.Fatalf("wf=%v: arrival %d op %+v, want %+v", wf, i, a.Op, ops[i])
				}
				if a.At < prev {
					t.Fatalf("wf=%v: arrival %d regresses", wf, i)
				}
				if a.At-prev > 12 {
					t.Fatalf("wf=%v: arrival %d gap %d exceeds the modulus", wf, i, a.At-prev)
				}
				prev = a.At
			}
		}
	}
}
