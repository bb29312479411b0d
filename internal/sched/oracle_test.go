package sched

// The semantic oracles the packer is tested against. None of this is on
// any execution path: the conflict graph is the pairwise definition of
// "may not share a wave", and oracleFirstWave/oracleFirstWaveFair are the
// reference implementations of wave formation the Admitter replaced.

// ConflictGraph is the semantic conflict relation over the ops of one
// batch: vertices are batch indices 0..n-1 and an edge joins two ops that
// may not run concurrently for *semantic* reasons (intersecting Excl
// sets, an Excl set intersecting a Read set in either direction, or
// either Solo — two Read claims on one key never conflict). Shared-claim
// budget exhaustion is not an edge — it depends on which updates actually
// pack together, a property of wave formation (the Admitter), not of pairs.
// Build one with BuildConflict.
type ConflictGraph struct {
	n   int
	adj [][]int // adjacency lists; neighbor order is unspecified
}

// BuildConflict builds the semantic conflict graph over the items: ops
// conflict iff their exclusive key sets intersect, one's exclusive keys
// intersect the other's read keys, or either is Solo. Keys are grouped
// rather than compared pairwise, so construction is near-linear in the
// total key count for sparse conflicts.
func BuildConflict(items []Item) *ConflictGraph {
	n := len(items)
	cg := &ConflictGraph{n: n, adj: make([][]int, n)}
	type claimants struct{ excl, read []int }
	byKey := make(map[int64]*claimants)
	group := func(k int64) *claimants {
		c := byKey[k]
		if c == nil {
			c = &claimants{}
			byKey[k] = c
		}
		return c
	}
	for i, it := range items {
		seen := make(map[int64]bool, 4)
		for _, k := range it.Excl {
			if seen[k] {
				continue // an op may name one resource twice (u,v in the same component)
			}
			seen[k] = true
			group(k).excl = append(group(k).excl, i)
		}
		for _, k := range it.Read {
			if seen[k] {
				continue // an exclusive claim subsumes a read of the same key
			}
			seen[k] = true
			group(k).read = append(group(k).read, i)
		}
	}
	// Exclusive claimants of a key form a clique and additionally conflict
	// with every reader of it; readers don't conflict among themselves. A
	// pair sharing several keys gets one edge. Group members are appended
	// in ascending index order, so pair{a,b} always has a < b.
	type pair struct{ a, b int }
	linked := make(map[pair]bool)
	link := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		p := pair{a, b}
		if linked[p] {
			return
		}
		linked[p] = true
		cg.adj[a] = append(cg.adj[a], b)
		cg.adj[b] = append(cg.adj[b], a)
	}
	for _, c := range byKey {
		for x := 0; x < len(c.excl); x++ {
			for y := x + 1; y < len(c.excl); y++ {
				link(c.excl[x], c.excl[y])
			}
			for _, r := range c.read {
				if r != c.excl[x] {
					link(c.excl[x], r)
				}
			}
		}
	}
	for i, it := range items {
		if !it.Solo {
			continue
		}
		for j := 0; j < n; j++ {
			if j < i {
				link(j, i)
			} else if j > i {
				link(i, j)
			}
		}
	}
	return cg
}

// N returns the number of updates the graph was built over.
func (cg *ConflictGraph) N() int { return cg.n }

// Conflicts reports whether updates i and j conflict.
func (cg *ConflictGraph) Conflicts(i, j int) bool {
	for _, k := range cg.adj[i] {
		if k == j {
			return true
		}
	}
	return false
}

// PrecedenceColor greedily colors the conflict graph in batch order:
// color(i) = 1 + max color of i's earlier conflicting neighbors, or 0 if it
// has none. The coloring is proper (conflicting updates never share a
// color) and order-preserving (for a conflicting pair i < j, color(i) <
// color(j)), so color classes executed in order replay every conflicting
// pair in batch order.
func (cg *ConflictGraph) PrecedenceColor() []int {
	colors := make([]int, cg.n)
	for i := 0; i < cg.n; i++ {
		c := 0
		for _, j := range cg.adj[i] {
			if j < i && colors[j]+1 > c {
				c = colors[j] + 1
			}
		}
		colors[i] = c
	}
	return colors
}

// Waves groups the updates by precedence color, in color order; within a
// wave, updates keep ascending batch order. waves[0] is the set of updates
// with no earlier conflicting update — the one class that is always safe to
// execute against the state the items were read from (budget permitting;
// see the Admitter).
func (cg *ConflictGraph) Waves() [][]int {
	colors := cg.PrecedenceColor()
	max := -1
	for _, c := range colors {
		if c > max {
			max = c
		}
	}
	waves := make([][]int, max+1)
	for i, c := range colors {
		waves[c] = append(waves[c], i)
	}
	return waves
}

// oracleFirstWave is the parent commit's sched.FirstWave, verbatim: it
// computes the wave to execute next in one pass over the items,
// without materializing the conflict graph: the first precedence color
// class, thinned by the shared-claim budgets. An update joins the wave iff
//
//   - no Solo op precedes it (a Solo op joins only from position 0,
//     alone),
//   - none of its exclusive keys were claimed — exclusively *or* read —
//     by any earlier op, and none of its read keys were claimed
//     exclusively by one (reads never block reads). Every op records its
//     claims whether it joined or not, so a blocked op also blocks its
//     later conflicters and batch order is preserved — and
//   - for every shared claim, either the key is so far unused in this wave
//     or adding the claim keeps the key's total within budget (a claim
//     larger than the whole budget still gets the key to itself, or it
//     could never run).
//
// budget <= 0 means unlimited, in which case it equals
// BuildConflict(items).Waves()[0] exactly (pinned by
// TestFirstWaveEquivalence). Position 0 always joins, so a scheduler
// looping over it always makes progress.
func oracleFirstWave(items []Item, budget int) []int {
	claimed := make(map[int64]bool, 2*len(items))
	readClaimed := make(map[int64]bool, 4)
	usage := make(map[int64]int, 4)
	var wave []int
	for i, it := range items {
		if it.Solo {
			if i == 0 {
				return []int{0}
			}
			// A solo op conflicts with everything: it cannot join past
			// position 0, and nothing after it may jump ahead of it.
			break
		}
		free := true
		for _, k := range it.Excl {
			if claimed[k] || readClaimed[k] {
				free = false
				break
			}
		}
		if free {
			for _, k := range it.Read {
				if claimed[k] {
					free = false
					break
				}
			}
		}
		if free && budget > 0 {
			for _, cl := range it.Shared {
				if u := usage[cl.Key]; u > 0 && u+cl.Cost > budget {
					free = false
					break
				}
			}
		}
		if free {
			wave = append(wave, i)
			for _, cl := range it.Shared {
				usage[cl.Key] += cl.Cost
			}
		}
		for _, k := range it.Excl {
			claimed[k] = true
		}
		for _, k := range it.Read {
			readClaimed[k] = true
		}
	}
	return wave
}

// oracleFirstWaveFair is the parent commit's sched.FirstWaveFair,
// verbatim: oracleFirstWave with a deficit-round-robin tenant policy
// layered over the shared-claim packing: an item additionally needs its
// tenant's deficit to cover its fair cost, except at position 0 of the
// wave where it joins unconditionally and is charged anyway (progress).
// A fairness-refused item records its exclusive/read claims exactly
// like a budget-refused one, so conflicting ops keep batch order. nil
// fair is oracleFirstWave identically.
func oracleFirstWaveFair(items []Item, budget int, fair *Fair) []int {
	if fair == nil {
		return oracleFirstWave(items, budget)
	}
	fair.beginWave()
	claimed := make(map[int64]bool, 2*len(items))
	readClaimed := make(map[int64]bool, 4)
	usage := make(map[int64]int, 4)
	var wave []int
	for i, it := range items {
		if it.Solo {
			if i == 0 {
				fair.charge(it.Tenant, fair.cost(&it))
				return []int{0}
			}
			break
		}
		free := true
		for _, k := range it.Excl {
			if claimed[k] || readClaimed[k] {
				free = false
				break
			}
		}
		if free {
			for _, k := range it.Read {
				if claimed[k] {
					free = false
					break
				}
			}
		}
		if free && budget > 0 {
			for _, cl := range it.Shared {
				if u := usage[cl.Key]; u > 0 && u+cl.Cost > budget {
					free = false
					break
				}
			}
		}
		if free && len(wave) > 0 && !fair.allows(it.Tenant, fair.cost(&it)) {
			free = false
		}
		if free {
			wave = append(wave, i)
			fair.charge(it.Tenant, fair.cost(&it))
			for _, cl := range it.Shared {
				usage[cl.Key] += cl.Cost
			}
		}
		for _, k := range it.Excl {
			claimed[k] = true
		}
		for _, k := range it.Read {
			readClaimed[k] = true
		}
	}
	return wave
}

// oracleDrive is the parent commit's wave loop (sched.Drive/DriveFair)
// over the oracle packer: re-read every pending item, execute the first
// wave, drop it from pending.
func oracleDrive(n int, item func(i int) Item, budget int, fair *Fair, exec func(wave []int)) int {
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	items := make([]Item, 0, n)
	waves := 0
	for len(pending) > 0 {
		items = items[:0]
		for _, b := range pending {
			items = append(items, item(b))
		}
		pos := oracleFirstWaveFair(items, budget, fair)
		wave := make([]int, len(pos))
		for x, j := range pos {
			wave[x] = pending[j]
		}
		exec(wave)
		waves++
		kept := pending[:0]
		x := 0
		for j, b := range pending {
			if x < len(pos) && pos[x] == j {
				x++
				continue
			}
			kept = append(kept, b)
		}
		pending = kept
	}
	return waves
}
