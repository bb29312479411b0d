package dmm

import (
	"sort"

	"dmpc/internal/mpc"
)

// §4: 3/2-approximate matching. A maximal matching with no augmenting path
// of length 3 is a 3/2-approximation of the maximum matching (Hopcroft–
// Karp, k=2). On top of the §3 machinery this file maintains, per vertex,
// a free-neighbor counter on the statistics machines, and eliminates every
// length-3 augmenting path an update could create:
//
//   - counters adjust exactly: an edge event contributes the other
//     endpoint's pre-event status; matching-status flips are coalesced by
//     parity per update (the adjacency is constant after the edge event)
//     and flushed by scanning the flipped vertex's list and batching
//     deltas to the O(n/√N) statistics machines — the paper's O(√N)-word,
//     O(n/√N)-machine flow;
//   - a vertex left free after the §3 logic searches its neighbors' mates
//     for one with a positive free-neighbor counter and rotates the
//     matching along the augmenting path (counter value 1 may refer to the
//     searching vertex itself, so the chosen mate is verified by a scan
//     excluding it; a counter of 2 or more always verifies).

// ctrEdgeEvent applies the exact counter adjustment for the update's edge
// event: the other endpoint's counter changes by ±1 if this endpoint was
// free at event time.
func (c *coordinator) ctrEdgeEvent(ctx *mpc.Ctx, x, y int32, xFree, yFree bool, ins bool) {
	d := int32(1)
	if !ins {
		d = -1
	}
	if yFree {
		c.send(ctx, c.statsOf(x), &ctrMsg{Kind: cCtrAdd, Vs: []int32{x}, Ds: []int32{d}})
	}
	if xFree {
		c.send(ctx, c.statsOf(y), &ctrMsg{Kind: cCtrAdd, Vs: []int32{y}, Ds: []int32{d}})
	}
}

// counterFlush propagates the net status flips accumulated so far: for
// each vertex whose status changed, its neighbor list is fetched and ±1
// deltas are batched to the statistics machines.
func (c *coordinator) counterFlush(ctx *mpc.Ctx, cont func(ctx *mpc.Ctx)) {
	var pending []int32
	for v, fi := range c.flips {
		if fi.flips%2 == 1 {
			pending = append(pending, v)
		}
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
	dirs := make(map[int32]int32, len(pending))
	for _, v := range pending {
		if c.flips[v].origFree {
			dirs[v] = -1 // became matched: neighbors lose a free neighbor
		} else {
			dirs[v] = +1
		}
	}
	c.flips = make(map[int32]*flipInfo)
	c.flushNext(ctx, pending, dirs, 0, cont)
}

func (c *coordinator) flushNext(ctx *mpc.Ctx, pending []int32, dirs map[int32]int32, i int, cont func(ctx *mpc.Ctx)) {
	if i >= len(pending) {
		cont(ctx)
		return
	}
	v := pending[i]
	c.statsReq(ctx, v, 0)
	c.await(ctx, 1, func(ctx *mpc.Ctx) {
		s := c.statOf(v)
		machines := c.vertexMachines(s)
		if len(machines) == 0 {
			c.flushNext(ctx, pending, dirs, i+1, cont)
			return
		}
		for _, m := range machines {
			c.send(ctx, m, &storageReq{Kind: cList, Seq: c.cur.seq, V: v, H: c.suffixFor(m)})
		}
		c.await(ctx, len(machines), func(ctx *mpc.Ctx) {
			// Batch ±1 deltas to the stats machines, grouped by owner.
			group := map[int32]*ctrMsg{}
			for _, r := range c.cur.stores {
				if r.Kind != cListRep {
					continue
				}
				for _, rec := range r.Recs {
					sm := c.statsOf(rec.other)
					g, ok := group[sm]
					if !ok {
						g = &ctrMsg{Kind: cCtrAdd}
						group[sm] = g
					}
					g.Vs = append(g.Vs, rec.other)
					g.Ds = append(g.Ds, dirs[v])
				}
			}
			for sm, g := range group {
				c.send(ctx, sm, g)
			}
			c.flushNext(ctx, pending, dirs, i+1, cont)
		})
	})
}

// vertexMachines lists the storage machines holding v's records.
func (c *coordinator) vertexMachines(s stat) []int32 {
	var out []int32
	if s.home >= 0 {
		out = append(out, s.home)
	}
	out = append(out, s.suspended...)
	return out
}

// insertMatch32 is the §4 case analysis after an insert's edge is stored.
func (c *coordinator) insertMatch32(ctx *mpc.Ctx, x int32, sx stat, y int32, sy stat) {
	xFree, yFree := sx.mate < 0, sy.mate < 0
	switch {
	case xFree && yFree:
		// Maximality ensured neither endpoint had a free neighbor, so no
		// augmenting path appears.
		c.matchPair(ctx, x, y, sx.heavy, sy.heavy)
		c.finishUpdate(ctx)
	case xFree && sx.heavy:
		c.surrogate(ctx, x, sx, c.finishUpdate)
	case yFree && sy.heavy:
		c.surrogate(ctx, y, sy, c.finishUpdate)
	case xFree:
		// x free and light, y matched: the new edge may close the
		// augmenting path x - (y,y') - w.
		c.aug3ViaEdge(ctx, x, sx, y, sy, c.finishUpdate)
	case yFree:
		c.aug3ViaEdge(ctx, y, sy, x, sx, c.finishUpdate)
	default:
		c.finishUpdate(ctx)
	}
}

// aug3ViaEdge resolves the path free - (matched, mate) - free created by a
// new edge (free, matched): if mate has a free neighbor w != free, rotate.
func (c *coordinator) aug3ViaEdge(ctx *mpc.Ctx, free int32, sFree stat, matched int32, sMatched stat, cont func(ctx *mpc.Ctx)) {
	mate := sMatched.mate
	c.send(ctx, c.statsOf(mate), &ctrMsg{Kind: cCtrGet, Seq: c.cur.seq, Vs: []int32{mate}})
	c.statsReq(ctx, mate, 0)
	c.await(ctx, 2, func(ctx *mpc.Ctx) {
		sMate := c.statOf(mate)
		ctr := c.ctrOf(mate)
		if ctr < 1 {
			cont(ctx)
			return
		}
		c.scanFreeExcluding(ctx, mate, sMate, free, func(ctx *mpc.Ctx, w int32, wHeavy, found bool) {
			if !found {
				cont(ctx)
				return
			}
			c.unmatchPair(ctx, matched, mate)
			c.matchPair(ctx, matched, free, sMatched.heavy, sFree.heavy)
			c.matchPair(ctx, mate, w, sMate.heavy, wHeavy)
			cont(ctx)
		})
	})
}

// scanFreeExcluding scans v's machines for a free neighbor other than
// excl, walking the suspended stack if needed.
func (c *coordinator) scanFreeExcluding(ctx *mpc.Ctx, v int32, s stat, excl int32, done func(ctx *mpc.Ctx, w int32, wHeavy, found bool)) {
	machines := c.vertexMachines(s)
	var step func(ctx *mpc.Ctx, i int)
	step = func(ctx *mpc.Ctx, i int) {
		if i >= len(machines) {
			done(ctx, -1, false, false)
			return
		}
		m := machines[i]
		c.send(ctx, m, &storageReq{
			Kind: cScan, Seq: c.cur.seq, V: v, WantFree: true, Exclude: excl,
			H: c.suffixFor(m),
		})
		c.await(ctx, 1, func(ctx *mpc.Ctx) {
			r := c.scanRep()
			if r.FoundFree {
				done(ctx, r.Rec.other, r.Rec.heavy, true)
				return
			}
			step(ctx, i+1)
		})
	}
	step(ctx, 0)
}

func (c *coordinator) ctrOf(v int32) int32 {
	for _, r := range c.cur.ctrs {
		for i, x := range r.Vs {
			if x == v {
				return r.Ds[i]
			}
		}
	}
	return 0
}

// augSweep runs the delete-side elimination: every vertex left free by the
// §3 logic is checked for a length-3 augmenting path through one of its
// neighbors' mates.
func (c *coordinator) augSweep(ctx *mpc.Ctx, cont func(ctx *mpc.Ctx)) {
	var cands []int32
	for v := range c.freed {
		cands = append(cands, v)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	c.freed = make(map[int32]bool)
	c.sweepNext(ctx, cands, 0, cont)
}

func (c *coordinator) sweepNext(ctx *mpc.Ctx, cands []int32, i int, cont func(ctx *mpc.Ctx)) {
	if i >= len(cands) {
		cont(ctx)
		return
	}
	// Flips from a previous rotation must land in the counters before the
	// next candidate reads them.
	c.counterFlush(ctx, func(ctx *mpc.Ctx) {
		c.aug3From(ctx, cands[i], func(ctx *mpc.Ctx) {
			c.sweepNext(ctx, cands, i+1, cont)
		})
	})
}

// aug3From searches for an augmenting path of length 3 starting at z (a
// vertex that is free after the base update) and rotates the matching
// along it if found.
func (c *coordinator) aug3From(ctx *mpc.Ctx, z int32, cont func(ctx *mpc.Ctx)) {
	c.statsReq(ctx, z, 0)
	c.await(ctx, 1, func(ctx *mpc.Ctx) {
		s := c.statOf(z)
		if s.mate >= 0 || s.deg == 0 {
			cont(ctx)
			return
		}
		machines := c.vertexMachines(s)
		for _, m := range machines {
			c.send(ctx, m, &storageReq{Kind: cList, Seq: c.cur.seq, V: z, H: c.suffixFor(m)})
		}
		c.await(ctx, len(machines), func(ctx *mpc.Ctx) {
			// Collect matched neighbors' mates; remember each mate's
			// partner record (z's neighbor, with its heaviness mirror). A
			// free neighbor in the list is matched immediately — the base
			// logic normally prevents this, but it preserves maximality
			// under the rare fallback paths.
			partner := map[int32]edgeRec{}
			var mates []int32
			for _, r := range c.cur.stores {
				if r.Kind != cListRep {
					continue
				}
				for _, rec := range r.Recs {
					if !rec.matched {
						c.matchPair(ctx, z, rec.other, s.heavy, rec.heavy)
						cont(ctx)
						return
					}
					if rec.mate >= 0 {
						if _, dup := partner[rec.mate]; !dup {
							partner[rec.mate] = rec
							mates = append(mates, rec.mate)
						}
					}
				}
			}
			if len(mates) == 0 {
				cont(ctx)
				return
			}
			// Batched counter reads grouped by statistics machine.
			group := map[int32][]int32{}
			for _, mt := range mates {
				group[c.statsOf(mt)] = append(group[c.statsOf(mt)], mt)
			}
			for sm, vs := range group {
				c.send(ctx, sm, &ctrMsg{Kind: cCtrGet, Seq: c.cur.seq, Vs: vs})
			}
			c.await(ctx, len(group), func(ctx *mpc.Ctx) {
				var candMates []int32
				ctrs := map[int32]int32{}
				for _, r := range c.cur.ctrs {
					for i, v := range r.Vs {
						if r.Ds[i] >= 1 {
							candMates = append(candMates, v)
							ctrs[v] = r.Ds[i]
						}
					}
				}
				// Prefer counters >= 2 (always verifiable) and stable order.
				sort.Slice(candMates, func(a, b int) bool {
					ca, cb := ctrs[candMates[a]] >= 2, ctrs[candMates[b]] >= 2
					if ca != cb {
						return ca
					}
					return candMates[a] < candMates[b]
				})
				c.tryRotate(ctx, z, s, partner, candMates, 0, cont)
			})
		})
	})
}

// tryRotate verifies candidates in order: the mate must have a free
// neighbor other than z; the first verified candidate rotates the
// matching.
func (c *coordinator) tryRotate(ctx *mpc.Ctx, z int32, sz stat, partner map[int32]edgeRec, mates []int32, i int, cont func(ctx *mpc.Ctx)) {
	if i >= len(mates) {
		cont(ctx) // no length-3 augmenting path through z
		return
	}
	mate := mates[i]
	c.statsReq(ctx, mate, 0)
	c.await(ctx, 1, func(ctx *mpc.Ctx) {
		sMate := c.statOf(mate)
		wRec := partner[mate]
		w := wRec.other
		if sMate.mate != w {
			// A stale mirror or an earlier rotation re-matched this pair.
			c.tryRotate(ctx, z, sz, partner, mates, i+1, cont)
			return
		}
		c.scanFreeExcluding(ctx, mate, sMate, z, func(ctx *mpc.Ctx, q int32, qHeavy, found bool) {
			if !found {
				c.tryRotate(ctx, z, sz, partner, mates, i+1, cont)
				return
			}
			c.unmatchPair(ctx, w, mate)
			c.matchPair(ctx, z, w, sz.heavy, wRec.heavy)
			c.matchPair(ctx, mate, q, sMate.heavy, qHeavy)
			cont(ctx)
		})
	})
}
