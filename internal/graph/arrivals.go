package graph

import "math/rand"

// Arrival is one timestamped operation of an asynchronous op stream: Op
// arrives at virtual time At, measured in cluster rounds since the stream
// began. The streaming front door (the facade's Ingestor) consumes
// Arrivals in time order and reports each op's rounds-from-arrival-to-
// answer, so At is the zero point of that op's latency.
type Arrival struct {
	At int64
	Op Op
}

// ArrivalHeap is a min-heap of arrivals ordered by At, with ties broken
// by input position (earlier arrivals of the schedule pop first), so a
// schedule with simultaneous arrivals replays deterministically in the
// order it was built. Build one with NewArrivalHeap, then Pop until Len is
// zero; Pop sifts in place and allocates nothing.
type ArrivalHeap struct {
	h []arrivalEntry
}

type arrivalEntry struct {
	a   Arrival
	seq int // input position, the tie-break
}

func (e arrivalEntry) before(f arrivalEntry) bool {
	return e.a.At < f.a.At || e.a.At == f.a.At && e.seq < f.seq
}

// NewArrivalHeap builds a heap holding the given arrivals. The input
// slice is not modified.
func NewArrivalHeap(arrivals []Arrival) *ArrivalHeap {
	ah := &ArrivalHeap{h: make([]arrivalEntry, len(arrivals))}
	for i, a := range arrivals {
		ah.h[i] = arrivalEntry{a: a, seq: i}
	}
	for i := len(ah.h)/2 - 1; i >= 0; i-- {
		ah.down(i)
	}
	return ah
}

// Len returns the number of arrivals still queued.
func (ah *ArrivalHeap) Len() int { return len(ah.h) }

// Pop removes and returns the earliest arrival. It panics on an empty
// heap.
func (ah *ArrivalHeap) Pop() Arrival {
	n := len(ah.h) - 1
	top := ah.h[0]
	ah.h[0] = ah.h[n]
	ah.h = ah.h[:n]
	ah.down(0)
	return top.a
}

// down sifts the entry at i down until neither child comes before it.
func (ah *ArrivalHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(ah.h) {
			return
		}
		if r := j + 1; r < len(ah.h) && ah.h[r].before(ah.h[j]) {
			j = r
		}
		if !ah.h[j].before(ah.h[i]) {
			return
		}
		ah.h[i], ah.h[j] = ah.h[j], ah.h[i]
		i = j
	}
}

// ArrivalsNow timestamps a whole op stream at time zero — the degenerate
// schedule under which streaming ingestion must coincide exactly with
// Pipeline.Apply on the full slice (the zero-inter-arrival special case).
func ArrivalsNow(ops []Op) []Arrival {
	arr := make([]Arrival, len(ops))
	for i, op := range ops {
		arr[i] = Arrival{At: 0, Op: op}
	}
	return arr
}

// PoissonArrivals timestamps an op stream with independent exponential
// inter-arrival gaps of the given mean (in rounds), rounded to whole
// rounds — the memoryless open-system workload. meanGap <= 0 degenerates
// to ArrivalsNow.
func PoissonArrivals(ops []Op, meanGap float64, rng *rand.Rand) []Arrival {
	if meanGap <= 0 {
		return ArrivalsNow(ops)
	}
	arr := make([]Arrival, len(ops))
	at := int64(0)
	for i, op := range ops {
		at += int64(rng.ExpFloat64() * meanGap)
		arr[i] = Arrival{At: at, Op: op}
	}
	return arr
}

// BurstyArrivals timestamps an op stream as back-to-back bursts: burst
// consecutive ops arrive withinGap rounds apart, then the next burst
// starts betweenGap rounds after the previous burst's last arrival — the
// storm-then-lull workload that separates tail latency from the amortized
// figure. burst < 1 is coerced to 1; negative gaps to 0.
func BurstyArrivals(ops []Op, burst int, withinGap, betweenGap int64) []Arrival {
	if burst < 1 {
		burst = 1
	}
	if withinGap < 0 {
		withinGap = 0
	}
	if betweenGap < 0 {
		betweenGap = 0
	}
	arr := make([]Arrival, len(ops))
	at := int64(0)
	for i, op := range ops {
		if i > 0 {
			if i%burst == 0 {
				at += betweenGap
			} else {
				at += withinGap
			}
		}
		arr[i] = Arrival{At: at, Op: op}
	}
	return arr
}

// FuzzArrivals deterministically decodes raw fuzzer bytes into an arrival
// schedule on n vertices — the front-end of the FuzzArrivalEquivalence
// harnesses. Four bytes per arrival: the first three decode the op
// exactly as FuzzOps documents (so the op streams of the mixed harnesses
// are reachable), and the fourth is the inter-arrival gap before the op,
// taken modulo 13 so random streams mix zero gaps (ops racing into one
// wave set) with real ones (ops straddling flushes). Ops dropped by the
// well-formed filter drop their gap bytes with them, keeping every
// surviving op paired with its own gap.
func FuzzArrivals(data []byte, n int, maxW Weight, qkinds []OpKind, wellFormed bool) []Arrival {
	ops, extras := fuzzOps(data, 4, n, maxW, qkinds, wellFormed)
	arr := make([]Arrival, len(ops))
	at := int64(0)
	for i, op := range ops {
		at += int64(extras[i][0] % 13)
		arr[i] = Arrival{At: at, Op: op}
	}
	return arr
}
