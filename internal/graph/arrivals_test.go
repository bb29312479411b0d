package graph

import (
	"container/heap"
	"math/rand"
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
	// A later Push with a tied timestamp pops after re-pushed earlier ties.
	h.Push(Arrival{At: 2, Op: OpIns(0, 1, 1)})
	h.Push(Arrival{At: 2, Op: OpDel(0, 1)})
	if first := h.Pop(); first.Op.Kind != OpInsert {
		t.Fatalf("tied pushes reordered: first pop %+v", first)
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

// TestArrivalHeapMatchesContainerHeap replays random schedules, built
// whole and then grown by interleaved pushes and pops with most At values
// tied, through ArrivalHeap and through container/heap over the same
// entries: every pop must be the same arrival.
func TestArrivalHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		arr := make([]Arrival, rng.Intn(48))
		for i := range arr {
			arr[i] = Arrival{At: int64(rng.Intn(5)), Op: OpIns(i, i+1, 1)}
		}
		h := NewArrivalHeap(arr)
		ref := make(refQueue, len(arr))
		for i, a := range arr {
			ref[i] = arrivalEntry{a: a, seq: i}
		}
		heap.Init(&ref)
		seq := len(arr)
		for step := 0; step < 96; step++ {
			if ref.Len() == 0 || rng.Intn(2) == 0 {
				a := Arrival{At: int64(rng.Intn(5)), Op: OpIns(seq, seq+1, 1)}
				h.Push(a)
				heap.Push(&ref, arrivalEntry{a: a, seq: seq})
				seq++
				continue
			}
			if got, want := h.Pop(), heap.Pop(&ref).(arrivalEntry).a; got != want {
				t.Fatalf("trial %d step %d: popped %+v, container/heap pops %+v", trial, step, got, want)
			}
		}
		for ref.Len() > 0 {
			if got, want := h.Pop(), heap.Pop(&ref).(arrivalEntry).a; got != want {
				t.Fatalf("trial %d drain: popped %+v, container/heap pops %+v", trial, got, want)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("trial %d: %d arrivals left after the reference drained", trial, h.Len())
		}
	}
}

// TestArrivalHeapAllocs pins that a Push and a Pop on a heap that has held
// that many arrivals allocate nothing.
func TestArrivalHeapAllocs(t *testing.T) {
	arr := make([]Arrival, 100)
	for i := range arr {
		arr[i] = Arrival{At: int64(i % 7), Op: OpIns(i, i+1, 1)}
	}
	h := NewArrivalHeap(arr)
	at := int64(0)
	if avg := testing.AllocsPerRun(1000, func() {
		h.Push(Arrival{At: at % 7, Op: OpIns(0, 1, 1)})
		h.Pop()
		at++
	}); avg != 0 {
		t.Errorf("Push+Pop allocates %.2f times, want 0", avg)
	}
}

// TestArrivalHeapTieStability is the property test behind the
// position-stable rule: for random schedules dense with tied
// timestamps — including interleaved pops and re-pushes — the pop
// order must equal a stable sort of the pushes by At, i.e. equal-At
// arrivals always pop in push order.
func TestArrivalHeapTieStability(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		// Draw timestamps from a tiny universe so most arrivals tie; encode
		// the push index in the op so stability is observable.
		h := NewArrivalHeap(nil)
		type rec struct {
			at  int64
			idx int
		}
		var live []rec // oracle: every pushed-not-yet-popped arrival
		pushes, pops := 0, 0
		for pushes < n || h.Len() > 0 {
			if pushes < n && (h.Len() == 0 || rng.Intn(3) > 0) {
				a := Arrival{At: int64(rng.Intn(4)), Op: OpIns(pushes, pushes+1, 1)}
				h.Push(a)
				live = append(live, rec{a.At, pushes})
				pushes++
				continue
			}
			// The pop must be the earliest-At, earliest-pushed live arrival:
			// ties break by insertion order, not by heap-internal layout.
			a := h.Pop()
			min := 0
			for j := 1; j < len(live); j++ {
				if live[j].at < live[min].at || (live[j].at == live[min].at && live[j].idx < live[min].idx) {
					min = j
				}
			}
			if got := (rec{a.At, a.Op.U}); got != live[min] {
				t.Fatalf("trial %d pop %d: got {at=%d idx=%d}, oracle wants {at=%d idx=%d}",
					trial, pops, got.at, got.idx, live[min].at, live[min].idx)
			}
			live = append(live[:min], live[min+1:]...)
			pops++
		}
		if pops != n {
			t.Fatalf("popped %d of %d arrivals", pops, n)
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
