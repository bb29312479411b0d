package sched

// Fair is a weighted deficit-round-robin share of the per-round word
// budget S across tenants, carried by the streaming Ingestor's packer.
// Each tenant t holds a deficit counter; every time the packer opens a
// set (once per Ingestor flush) the counter is topped up by the tenant's
// quantum
//
//	quantum(t) = max(1, S * weight(t) / totalWeight)
//
// and capped at S, so unused share rolls forward but a long-idle tenant
// can never hoard more than one full wave's budget. An item's fair cost
// is the sum of its Shared claim costs (a Solo item charges the whole
// budget: it takes the wave to itself); exclusive and read keys are
// ordering constraints, not capacity, and cost nothing. An item joins a
// wave only while its tenant's deficit covers its cost — except the
// first item of a wave, which always joins and may drive its deficit
// negative (the position-0 progress guarantee; the debt is repaid out
// of future quanta).
//
// totalWeight is the sum of the configured weights (minimum 1), so the
// configuration alone fixes every quantum. This is deliberate: quanta
// must not depend on which tenants happen to appear in a batch, or
// packing one arrival at a time and packing a whole slice would disagree
// (the streaming caller cannot know the batch's tenant set in advance). A
// tenant with no configured weight gets weight 1 over the same
// denominator.
//
// Fairness never reorders conflicting ops: the packer refuses a
// tenant-throttled item exactly like a budget-refused one — the item
// still records its exclusive/read claims, so everything that conflicts
// with it stays behind it (the fairness invariant, pinned by
// TestFirstWaveFairPreservesOrdering).
type Fair struct {
	budget  int
	weights map[int]int
	total   int
	deficit map[int]int
}

// NewFair returns a Fair policy carving the per-wave budget into the
// given weight shares. weights maps tenant id -> weight (values < 1 are
// treated as 1); tenants absent from the map weigh 1 against the same
// total. A nil *Fair handed to NewAdmitterFair disables fairness
// entirely (first-fit packing), which is the single-tenant default.
func NewFair(budget int, weights map[int]int) *Fair {
	f := &Fair{
		budget:  budget,
		weights: make(map[int]int, len(weights)),
		deficit: make(map[int]int, len(weights)+1),
	}
	for t, w := range weights {
		if w < 1 {
			w = 1
		}
		f.weights[t] = w
		f.total += w
	}
	if f.total < 1 {
		f.total = 1
	}
	for t := range f.weights {
		f.deficit[t] = 0
	}
	return f
}

// quantum is the tenant's per-wave top-up: its weight share of the
// budget, at least one word so every tenant always makes progress.
func (f *Fair) quantum(t int) int {
	w := f.weights[t]
	if w < 1 {
		w = 1
	}
	q := f.budget * w / f.total
	if q < 1 {
		q = 1
	}
	return q
}

// beginWave tops up every known tenant's deficit by its quantum, capped
// at the full budget. The packer calls it once per set, when the set
// opens.
func (f *Fair) beginWave() {
	for t, d := range f.deficit {
		d += f.quantum(t)
		if d > f.budget {
			d = f.budget
		}
		f.deficit[t] = d
	}
}

// cost is the item's charge against its tenant's deficit: the summed
// shared-claim words, or the whole budget for a Solo item.
func (f *Fair) cost(it *Item) int {
	if it.Solo {
		return f.budget
	}
	c := 0
	for _, cl := range it.Shared {
		c += cl.Cost
	}
	return c
}

// allows reports whether the tenant's deficit covers the cost. A tenant
// seen for the first time mid-run starts with one quantum, exactly as
// if it had been topped up when this set opened.
func (f *Fair) allows(t, cost int) bool {
	d, ok := f.deficit[t]
	if !ok {
		d = f.quantum(t)
		f.deficit[t] = d
	}
	return d >= cost
}

// charge debits the cost against the tenant's deficit (which may go
// negative via the position-0 progress rule).
func (f *Fair) charge(t, cost int) {
	if _, ok := f.deficit[t]; !ok {
		f.deficit[t] = f.quantum(t)
	}
	f.deficit[t] -= cost
}
