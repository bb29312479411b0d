package graph

// Batch is an ordered sequence of updates applied to a dynamic structure as
// one unit, sharing a single round-accounting window in the DMPC simulator.
// Applying a batch is semantically equivalent to applying its updates one
// at a time in order; batching only changes how rounds are charged and lets
// algorithms overlap or parallelize non-conflicting updates.
type Batch []Update

// Chunk splits a stream into consecutive batches of at most k updates,
// preserving order. k <= 1 yields singleton batches (per-update semantics);
// k >= len(updates) yields the whole stream as one chunk. Any k is safe:
// the capacity expression (len+k-1)/k used to overflow for k near MaxInt,
// panicking in make, so k is clamped to the stream length first.
func Chunk(updates []Update, k int) []Batch {
	if len(updates) == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > len(updates) {
		k = len(updates)
	}
	out := make([]Batch, 0, (len(updates)+k-1)/k)
	for len(updates) > 0 {
		n := k
		if n > len(updates) {
			n = len(updates)
		}
		out = append(out, Batch(updates[:n:n]))
		updates = updates[n:]
	}
	return out
}

// Apply replays the batch onto g, returning how many updates changed it.
func (b Batch) Apply(g *Graph) int {
	changed := 0
	for _, u := range b {
		if g.Apply(u) {
			changed++
		}
	}
	return changed
}
