package dmm

import (
	"dmpc/internal/mpc"
)

// Orchestration of one update at MC, §3's insert(x,y) / delete(x,y). The
// flow is a chain of continuations, each segment costing one or two
// cluster rounds and touching O(1) machines; the H suffixes riding on the
// messages bound communication by O(√N) words per round.

func (c *coordinator) startUpdate(ctx *mpc.Ctx, m update) {
	if m.A == m.B {
		c.updateDone(ctx)
		return
	}
	if m.Del {
		c.startDelete(ctx, m.A, m.B)
	} else {
		c.startInsert(ctx, m.A, m.B)
	}
}

func (c *coordinator) statsReq(ctx *mpc.Ctx, v, delta int32) {
	m := statsReq{Seq: c.cur.seq, V: v, DegDelta: delta}
	c.reqs.Send(ctx, int(c.statsOf(v)), m, m.words())
}

// --- insert -------------------------------------------------------------

// startInsert assumes a well-formed stream (no duplicate inserts, no
// deletes of absent edges), the standard contract for dynamic algorithms;
// the degree bookkeeping on the statistics machines relies on it.
func (c *coordinator) startInsert(ctx *mpc.Ctx, x, y int32) {
	c.hAppend(hentry{op: hEdgeIns, a: x, b: y})
	c.statsReq(ctx, x, +1)
	c.statsReq(ctx, y, +1)
	c.await(ctx, 2, func(ctx *mpc.Ctx) {
		sx, sy := c.statOf(x), c.statOf(y)
		if c.threeHalves {
			// §4 edge event: the new edge contributes the endpoints'
			// pre-matching statuses to each other's counters.
			c.ctrEdgeEvent(ctx, x, y, sx.mate < 0, sy.mate < 0, true)
		}
		// Mirror records need the heaviness of the endpoints' mates.
		var need []int32
		if sx.mate >= 0 {
			need = append(need, sx.mate)
		}
		if sy.mate >= 0 && sy.mate != sx.mate {
			need = append(need, sy.mate)
		}
		for _, z := range need {
			c.statsReq(ctx, z, 0)
		}
		c.await(ctx, len(need), func(ctx *mpc.Ctx) {
			xMateHeavy := sx.mate >= 0 && c.statOf(sx.mate).heavy
			yMateHeavy := sy.mate >= 0 && c.statOf(sy.mate).heavy
			c.transitionUp(ctx, x, &sx, func(ctx *mpc.Ctx) {
				c.transitionUp(ctx, y, &sy, func(ctx *mpc.Ctx) {
					recX := edgeRec{other: y, matched: sy.mate >= 0, mate: sy.mate,
						heavy: sy.heavy, mateHeavy: yMateHeavy}
					recY := edgeRec{other: x, matched: sx.mate >= 0, mate: sx.mate,
						heavy: sx.heavy, mateHeavy: xMateHeavy}
					c.storeOne(ctx, x, &sx, recX, func(ctx *mpc.Ctx) {
						c.storeOne(ctx, y, &sy, recY, func(ctx *mpc.Ctx) {
							c.insertMatch(ctx, x, sx, y, sy)
						})
					})
				})
			})
		})
	})
}

// insertMatch applies §3's case analysis after the edge is stored.
func (c *coordinator) insertMatch(ctx *mpc.Ctx, x int32, sx stat, y int32, sy stat) {
	if c.threeHalves {
		c.insertMatch32(ctx, x, sx, y, sy)
		return
	}
	xFree, yFree := sx.mate < 0, sy.mate < 0
	switch {
	case xFree && yFree:
		c.matchPair(ctx, x, y, sx.heavy, sy.heavy)
		c.finishUpdate(ctx)
	case xFree && sx.heavy:
		c.surrogate(ctx, x, sx, func(ctx *mpc.Ctx) { c.finishUpdate(ctx) })
	case yFree && sy.heavy:
		c.surrogate(ctx, y, sy, func(ctx *mpc.Ctx) { c.finishUpdate(ctx) })
	default:
		c.finishUpdate(ctx)
	}
}

// --- delete -------------------------------------------------------------

func (c *coordinator) startDelete(ctx *mpc.Ctx, x, y int32) {
	c.hAppend(hentry{op: hEdgeDel, a: x, b: y})
	c.statsReq(ctx, x, -1)
	c.statsReq(ctx, y, -1)
	c.await(ctx, 2, func(ctx *mpc.Ctx) {
		sx, sy := c.statOf(x), c.statOf(y)
		wasMatched := sx.mate == y
		if c.threeHalves {
			// §4 edge event with pre-deletion statuses.
			c.ctrEdgeEvent(ctx, x, y, sx.mate < 0, sy.mate < 0, false)
		}
		if wasMatched {
			c.unmatchPair(ctx, x, y)
			sx.mate, sy.mate = -1, -1
		}
		c.transitionDown(ctx, x, &sx, func(ctx *mpc.Ctx) {
			c.transitionDown(ctx, y, &sy, func(ctx *mpc.Ctx) {
				if !wasMatched {
					c.finishUpdate(ctx)
					return
				}
				c.rematch(ctx, x, func(ctx *mpc.Ctx) {
					c.rematch(ctx, y, func(ctx *mpc.Ctx) {
						c.finishUpdate(ctx)
					})
				})
			})
		})
	})
}

// rematch re-reads v's authoritative stat (the x-side rematch may already
// have matched y through an augmenting steal) and restores maximality
// around v.
func (c *coordinator) rematch(ctx *mpc.Ctx, v int32, cont func(ctx *mpc.Ctx)) {
	c.statsReq(ctx, v, 0)
	c.await(ctx, 1, func(ctx *mpc.Ctx) {
		s := c.statOf(v)
		if s.mate >= 0 || s.deg == 0 {
			cont(ctx)
			return
		}
		if !s.heavy {
			c.rematchLightKnown(ctx, v, s, cont)
			return
		}
		c.surrogate(ctx, v, s, cont)
	})
}

// rematchLightKnown scans the light vertex's single home machine for a
// free neighbor.
func (c *coordinator) rematchLightKnown(ctx *mpc.Ctx, v int32, s stat, cont func(ctx *mpc.Ctx)) {
	if s.home < 0 {
		cont(ctx)
		return
	}
	c.send(ctx, s.home, &storageReq{
		Kind: cScan, Seq: c.cur.seq, V: v, WantFree: true, Exclude: -1,
		H: c.suffixFor(s.home),
	})
	c.await(ctx, 1, func(ctx *mpc.Ctx) {
		r := c.scanRep()
		if r.FoundFree {
			c.matchPair(ctx, v, r.Rec.other, s.heavy, r.Rec.heavy)
		}
		cont(ctx)
	})
}

// surrogate restores Invariant 3.1 for a free heavy vertex v: match a free
// alive neighbor if any, otherwise steal a neighbor w whose mate z is
// light, then rematch z from its own (single-machine) adjacency. If the
// alive window offers neither, the suspended stack is scanned as a counted
// fallback.
func (c *coordinator) surrogate(ctx *mpc.Ctx, v int32, s stat, cont func(ctx *mpc.Ctx)) {
	machines := append([]int32{}, s.home)
	machines = append(machines, s.suspended...)
	c.surrogateScan(ctx, v, s, machines, 0, cont)
}

func (c *coordinator) surrogateScan(ctx *mpc.Ctx, v int32, s stat, machines []int32, idx int, cont func(ctx *mpc.Ctx)) {
	if idx >= len(machines) {
		cont(ctx) // v stays free; all neighbors are matched with heavy mates
		return
	}
	if idx == 1 {
		c.fallbacks++
	}
	m := machines[idx]
	if m < 0 {
		cont(ctx)
		return
	}
	c.send(ctx, m, &storageReq{
		Kind: cScan, Seq: c.cur.seq, V: v, WantFree: true, WantSteal: true, Exclude: -1,
		H: c.suffixFor(m),
	})
	c.await(ctx, 1, func(ctx *mpc.Ctx) {
		r := c.scanRep()
		switch {
		case r.FoundFree:
			c.matchPair(ctx, v, r.Rec.other, s.heavy, r.Rec.heavy)
			cont(ctx)
		case r.FoundSteal:
			w, z := r.Rec.other, r.Rec.mate
			c.unmatchPair(ctx, w, z)
			c.matchPair(ctx, v, w, s.heavy, r.Rec.heavy)
			c.rematchLight(ctx, z, cont)
		default:
			c.surrogateScan(ctx, v, s, machines, idx+1, cont)
		}
	})
}

// rematchLight fetches z's stat first (the steal just freed it).
func (c *coordinator) rematchLight(ctx *mpc.Ctx, z int32, cont func(ctx *mpc.Ctx)) {
	c.statsReq(ctx, z, 0)
	c.await(ctx, 1, func(ctx *mpc.Ctx) {
		s := c.statOf(z)
		if s.mate >= 0 {
			cont(ctx)
			return
		}
		c.rematchLightKnown(ctx, z, s, cont)
	})
}

// --- transitions & storage placement ------------------------------------

// transitionUp promotes v to heavy when an insertion pushes its degree to
// the threshold: a fresh alive machine takes the first aliveCap records,
// the remainder goes to a fresh suspended machine.
func (c *coordinator) transitionUp(ctx *mpc.Ctx, v int32, s *stat, cont func(ctx *mpc.Ctx)) {
	if s.heavy || int(s.deg) < c.heavyAt {
		cont(ctx)
		return
	}
	s.heavy = true
	c.hAppend(hentry{op: hHeavyOn, a: v})
	c.setField(ctx, v, fHeavy, 1)
	if s.home < 0 {
		// Degenerate: no stored edges yet (cannot happen at threshold >= 1).
		cont(ctx)
		return
	}
	alive := c.allocate(mkExclusive, int32(c.mem))
	susp := c.allocate(mkExclusive, int32(c.mem))
	old := s.home
	c.send(ctx, old, &storageReq{
		Kind: cMoveOut, Seq: c.cur.seq, V: v, Target: alive, Keep: int32(c.aliveCap), Overflow: susp,
		H: c.suffixFor(old),
	})
	// Three acks: source, alive target, overflow target.
	c.await(ctx, 3, func(ctx *mpc.Ctx) {
		kept := c.ackCount(alive)
		overflowed := c.ackCount(susp)
		s.home = alive
		s.aliveCnt = kept
		s.suspended = nil
		if overflowed > 0 {
			s.suspended = []int32{susp}
		} else {
			c.release(susp)
		}
		c.setHome(ctx, v, alive)
		c.setCnt(ctx, v, kept)
		c.setSusp(ctx, v, s.suspended)
		cont(ctx)
	})
}

// transitionDown demotes v to light when a deletion drops its degree below
// the threshold: alive and suspended records consolidate onto one shared
// light machine.
func (c *coordinator) transitionDown(ctx *mpc.Ctx, v int32, s *stat, cont func(ctx *mpc.Ctx)) {
	if !s.heavy || int(s.deg) >= c.heavyAt {
		cont(ctx)
		return
	}
	s.heavy = false
	c.hAppend(hentry{op: hHeavyOff, a: v})
	c.setField(ctx, v, fHeavy, 0)
	sources := append([]int32{}, s.home)
	sources = append(sources, s.suspended...)
	target := c.allocate(mkLight, (s.deg+2)*edgeWords)
	// A shared target may hold other vertices' records behind the history;
	// sync it now so the records arriving next round are not corrupted by
	// a later suffix replay.
	c.refresh(ctx, target)
	for _, src := range sources {
		c.send(ctx, src, &storageReq{
			Kind: cMoveOut, Seq: c.cur.seq, V: v, Target: target, Keep: -1, Overflow: -1,
			H: c.suffixFor(src),
		})
	}
	// Each source acks, and the target acks each shipment.
	c.await(ctx, 2*len(sources), func(ctx *mpc.Ctx) {
		for _, src := range sources {
			c.release(src)
		}
		s.home = target
		s.aliveCnt = 0
		s.suspended = nil
		c.setHome(ctx, v, target)
		c.setCnt(ctx, v, 0)
		c.setSusp(ctx, v, nil)
		cont(ctx)
	})
}

// storeOne places v's copy of a new edge record, relocating v's light list
// when its home machine is full (the paper's moveEdges/toFit).
func (c *coordinator) storeOne(ctx *mpc.Ctx, v int32, s *stat, rec edgeRec, cont func(ctx *mpc.Ctx)) {
	if s.heavy {
		target := int32(-1)
		switch {
		case int(s.aliveCnt) < c.aliveCap && c.freeWords[s.home] >= edgeWords:
			target = s.home
			s.aliveCnt++
			c.setCnt(ctx, v, s.aliveCnt)
		case len(s.suspended) > 0 && c.freeWords[s.suspended[len(s.suspended)-1]] >= edgeWords:
			target = s.suspended[len(s.suspended)-1]
		default:
			target = c.allocate(mkExclusive, int32(c.mem))
			s.suspended = append(s.suspended, target)
			c.setSusp(ctx, v, s.suspended)
		}
		c.sendStore(ctx, target, v, rec)
		cont(ctx)
		return
	}
	// Light vertex.
	if s.home < 0 {
		s.home = c.allocate(mkLight, edgeWords*(s.deg+2))
		c.setHome(ctx, v, s.home)
	}
	if c.freeWords[s.home] >= edgeWords {
		c.sendStore(ctx, s.home, v, rec)
		cont(ctx)
		return
	}
	// Relocate the whole list to a machine that fits it plus the new
	// record. Sync the shared target first (see transitionDown).
	target := c.allocate(mkLight, edgeWords*(s.deg+2))
	old := s.home
	c.refresh(ctx, target)
	c.send(ctx, old, &storageReq{
		Kind: cMoveOut, Seq: c.cur.seq, V: v, Target: target, Keep: -1, Overflow: -1,
		H: c.suffixFor(old),
	})
	c.await(ctx, 2, func(ctx *mpc.Ctx) {
		s.home = target
		c.setHome(ctx, v, target)
		c.sendStore(ctx, target, v, rec)
		cont(ctx)
	})
}
