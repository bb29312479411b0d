package sched

// Admitter is the one packer: it grows a set of ops that may share a wave,
// one offered item at a time, under the rules of the package comment. It
// is long-lived — a core or an Ingestor builds one and reuses it for every
// wave — and owns its claim tables and index buffers, so steady-state
// packing allocates nothing. Not safe for concurrent use.
type Admitter struct {
	budget int
	fair   *Fair // optional tenant policy; nil = first-fit

	claimed     map[int64]bool // exclusive keys of every item offered to the set
	readClaimed map[int64]bool // read keys of every item offered to the set
	usage       map[int64]int  // shared-claim usage per key, admitted items only
	n           int            // items admitted to the set
	open        bool           // an item was offered since Reset: tenants are topped up
	sealed      bool           // a Solo item was offered: nothing else joins

	// Wave and Drive scratch, reused across calls.
	wave, rest []int
	index      pendingIndex // Drive's copy of the batch's items, and its view of the pending ones
}

// NewAdmitterFair returns an empty packer with the given shared-claim
// budget (per key, per set; <= 0 means unlimited). A non-nil fair
// additionally meters each tenant's summed shared cost against the
// policy's deficits; nil packs first-fit.
func NewAdmitterFair(budget int, fair *Fair) *Admitter {
	return &Admitter{
		budget:      budget,
		fair:        fair,
		claimed:     make(map[int64]bool),
		readClaimed: make(map[int64]bool),
		usage:       make(map[int64]int),
	}
}

// Reset empties the set: the streaming caller does this after flushing
// it, Wave before forming the next one. The next item offered opens a new
// set, which is where a Fair policy's tenants get their top-up.
func (a *Admitter) Reset() {
	// clear re-seeds a map's hash even when the map is empty, and Drive
	// resets once per wave: skip the tables the last set never wrote.
	if len(a.claimed) > 0 {
		clear(a.claimed)
	}
	if len(a.readClaimed) > 0 {
		clear(a.readClaimed)
	}
	if len(a.usage) > 0 {
		clear(a.usage)
	}
	a.n = 0
	a.open = false
	a.sealed = false
}

// Admit offers one item to the set — the one-arrival-at-a-time spelling
// of the packer — and reports whether it joined. An empty set admits
// anything, so a flush-on-refuse loop always makes progress.
func (a *Admitter) Admit(it Item) bool { return a.admit(&it) }

// admit is the packing rule. The item joins iff
//
//   - no Solo item was offered before it (a Solo item itself joins only an
//     empty set, and seals the set whether it joined or not),
//   - none of its exclusive keys were recorded — exclusively *or* read —
//     by an earlier offered item, and none of its read keys were recorded
//     exclusively by one (reads never block reads),
//   - for every shared claim, either the key is so far unused in this set
//     or adding the claim keeps the key's total within budget (a claim
//     larger than the whole budget still gets the key to itself, or it
//     could never run); an item naming one key twice is checked claim by
//     claim against the usage before the item, and
//   - with a Fair policy, its tenant's deficit covers its cost — except
//     the first item of the set, which joins unconditionally and is
//     charged anyway (progress).
//
// Every offered item records its exclusive and read keys whether it joined
// or not, so a refused item also holds back its later conflicters and
// batch order is preserved; only admitted items consume budget and
// deficit.
func (a *Admitter) admit(it *Item) bool {
	if !a.open {
		a.open = true
		if a.fair != nil {
			a.fair.beginWave()
		}
	}
	if a.sealed {
		return false
	}
	if it.Solo {
		a.sealed = true
		if a.n > 0 {
			return false
		}
		a.n = 1
		if a.fair != nil {
			a.fair.charge(it.Tenant, a.fair.cost(it))
		}
		return true
	}
	free := true
	for _, k := range it.Excl {
		if a.claimed[k] || a.readClaimed[k] {
			free = false
			break
		}
	}
	if free {
		for _, k := range it.Read {
			if a.claimed[k] {
				free = false
				break
			}
		}
	}
	if free && a.budget > 0 {
		for _, cl := range it.Shared {
			if u := a.usage[cl.Key]; u > 0 && u+cl.Cost > a.budget {
				free = false
				break
			}
		}
	}
	if free && a.fair != nil {
		cost := a.fair.cost(it)
		free = a.n == 0 || a.fair.allows(it.Tenant, cost)
		if free {
			a.fair.charge(it.Tenant, cost)
		}
	}
	if free {
		a.n++
		for _, cl := range it.Shared {
			a.usage[cl.Key] += cl.Cost
		}
	}
	for _, k := range it.Excl {
		a.claimed[k] = true
	}
	for _, k := range it.Read {
		a.readClaimed[k] = true
	}
	return free
}

// Wave forms the next wave over a whole slice of pending ops: items[j]
// describes batch index pending[j], read from current state. It empties
// the set, offers every item in order, and returns the admitted batch
// indices (never empty for a non-empty slice) and the refused ones, both
// in batch order. The two slices are the packer's own buffers, valid only
// until its next call; pending is left untouched.
func (a *Admitter) Wave(pending []int, items []Item) (wave, rest []int) {
	a.Reset()
	wave, rest = a.wave[:0], a.rest[:0]
	for j := range items {
		if a.admit(&items[j]) {
			wave = append(wave, pending[j])
		} else {
			rest = append(rest, pending[j])
		}
	}
	a.wave, a.rest = wave, rest
	return wave, rest
}

// Drive executes a batch of n ops as a sequence of waves: item(i) reads
// op i's resource usage from live state (the packer copies it, so the
// returned slices need only outlive the call) and exec runs one wave of
// batch indices concurrently (the slice is valid only during the call). It
// returns the number of waves executed. Callers assign per-op identifiers
// (sequence numbers) by batch position, not execution order, so reordered
// schedules replay state transitions bit-identically.
//
// Every item is read once, and the first wave is one linear scan over them
// — a batch that fits one wave pays nothing else. What it leaves pending is
// indexed by key (pendingIndex): each later wave offers admit only the
// key-free ops, cut at the first pending Solo, and after it executes only
// the ops naming a key it dirtied are read again. That is sound under the
// package comment's contract on what an Item may depend on.
func (a *Admitter) Drive(n int, item func(i int) Item, exec func(wave []int)) int {
	if n == 0 {
		return 0
	}
	x := &a.index
	x.reset(n)
	items := x.items
	a.Reset()
	wave, rest := a.wave[:0], a.rest[:0]
	for i := range items {
		fresh := item(i)
		x.store(i, &fresh)
		if a.admit(&items[i]) {
			wave = append(wave, i)
		} else {
			rest = append(rest, i)
		}
	}
	a.wave, a.rest = wave, rest
	exec(wave)
	waves := 1
	if len(rest) == 0 {
		return waves
	}
	x.build(rest)
	for {
		x.reread(wave, item)
		x.refresh()
		a.Reset()
		wave = wave[:0]
		solo := x.solos.first()
		for _, i := range x.ready {
			if i > solo {
				break // nothing overtakes a pending Solo
			}
			if a.admit(&items[i]) {
				wave = append(wave, i)
			}
		}
		// The Solo is offered in its turn: admit takes it iff the set is
		// still empty, which is iff no op before it is pending.
		if solo != noOp && a.admit(&items[solo]) {
			wave = append(wave, solo)
		}
		a.wave = wave
		exec(wave)
		waves++
		if x.retire(wave) == 0 {
			return waves
		}
	}
}

// Drive is Admitter.Drive on a fresh first-fit packer: the spelling for a
// caller with one batch to run and no packer to keep.
func Drive(n int, item func(i int) Item, budget int, exec func(wave []int)) int {
	return NewAdmitterFair(budget, nil).Drive(n, item, exec)
}
