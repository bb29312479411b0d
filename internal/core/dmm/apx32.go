package dmm

import (
	"cmp"
	"slices"

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
func (c *coordinator) counterFlush(ctx *mpc.Ctx, fl *flow, ret step) {
	fl.push(ret)
	fl.pending = fl.pending[:0]
	for v, fi := range c.flips {
		if fi.flips%2 == 1 {
			fl.pending = append(fl.pending, v)
		}
	}
	slices.Sort(fl.pending)
	fl.dirs = fl.dirs[:0]
	for _, v := range fl.pending {
		if c.flips[v].origFree {
			fl.dirs = append(fl.dirs, -1) // became matched: neighbors lose a free neighbor
		} else {
			fl.dirs = append(fl.dirs, +1)
		}
	}
	clear(c.flips)
	fl.op.pi = 0
	c.flushNext(ctx, fl)
}

func (c *coordinator) flushNext(ctx *mpc.Ctx, fl *flow) {
	if fl.op.pi >= len(fl.pending) {
		c.ret(ctx, fl)
		return
	}
	c.statsReq(ctx, fl, fl.pending[fl.op.pi], 0)
	c.await(ctx, fl, 1, (*coordinator).flushStat)
}

func (c *coordinator) flushStat(ctx *mpc.Ctx, fl *flow) {
	v := fl.pending[fl.op.pi]
	machines := fl.vertexMachines(fl.statOf(v))
	if len(machines) == 0 {
		fl.op.pi++
		c.flushNext(ctx, fl)
		return
	}
	for _, m := range machines {
		c.send(ctx, m, &storageReq{Kind: cList, Seq: fl.seq, V: v, H: c.suffixFor(m)})
	}
	c.await(ctx, fl, len(machines), (*coordinator).flushLists)
}

func (c *coordinator) flushLists(ctx *mpc.Ctx, fl *flow) {
	// Batch ±1 deltas to the stats machines, grouped by owner.
	d := fl.dirs[fl.op.pi]
	group := map[int32]*ctrMsg{}
	for _, r := range fl.stores {
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
			g.Ds = append(g.Ds, d)
		}
	}
	for sm, g := range group {
		c.send(ctx, sm, g)
	}
	fl.op.pi++
	c.flushNext(ctx, fl)
}

// vertexMachines lists the storage machines holding the records of the
// vertex whose stat is s, in fl's machine scratch.
func (fl *flow) vertexMachines(s stat) []int32 {
	fl.machines = fl.machines[:0]
	if s.home >= 0 {
		fl.machines = append(fl.machines, s.home)
	}
	fl.machines = append(fl.machines, s.suspended...)
	return fl.machines
}

// insertMatch32 is the §4 case analysis after an insert's edge is stored.
func (c *coordinator) insertMatch32(ctx *mpc.Ctx, fl *flow) {
	o := &fl.op
	xFree, yFree := o.sx.mate < 0, o.sy.mate < 0
	switch {
	case xFree && yFree:
		// Maximality ensured neither endpoint had a free neighbor, so no
		// augmenting path appears.
		c.matchPair(ctx, o.x, o.y, o.sx.heavy, o.sy.heavy)
		c.finishUpdate(ctx, fl)
	case xFree && o.sx.heavy:
		c.surrogate(ctx, fl, o.x, o.sx, (*coordinator).finishUpdate)
	case yFree && o.sy.heavy:
		c.surrogate(ctx, fl, o.y, o.sy, (*coordinator).finishUpdate)
	case xFree:
		// x free and light, y matched: the new edge may close the
		// augmenting path x - (y,y') - w.
		c.aug3ViaEdge(ctx, fl, o.x, o.sx.heavy, o.y, o.sy, (*coordinator).finishUpdate)
	case yFree:
		c.aug3ViaEdge(ctx, fl, o.y, o.sy.heavy, o.x, o.sx, (*coordinator).finishUpdate)
	default:
		c.finishUpdate(ctx, fl)
	}
}

// aug3ViaEdge resolves the path free - (matched, mate) - q created by a
// new edge (free, matched): if mate has a free neighbor q != free, rotate.
func (c *coordinator) aug3ViaEdge(ctx *mpc.Ctx, fl *flow, free int32, freeHeavy bool, matched int32, sMatched stat, ret step) {
	fl.push(ret)
	mate := sMatched.mate
	c.send(ctx, c.statsOf(mate), &ctrMsg{Kind: cCtrGet, Seq: fl.seq, Vs: []int32{mate}})
	c.statsReq(ctx, fl, mate, 0)
	o := &fl.op
	o.z, o.zHeavy, o.w, o.wHeavy, o.mate = free, freeHeavy, matched, sMatched.heavy, mate
	c.await(ctx, fl, 2, (*coordinator).aug3EdgeRead)
}

func (c *coordinator) aug3EdgeRead(ctx *mpc.Ctx, fl *flow) {
	o := &fl.op
	sMate := fl.statOf(o.mate)
	if fl.ctrOf(o.mate) < 1 {
		c.ret(ctx, fl)
		return
	}
	o.mateHeavy = sMate.heavy
	c.scanFreeExcluding(ctx, fl, o.mate, sMate, o.z, (*coordinator).aug3EdgeScanned)
}

func (c *coordinator) aug3EdgeScanned(ctx *mpc.Ctx, fl *flow) {
	o := &fl.op
	if o.found {
		c.unmatchPair(ctx, o.w, o.mate)
		c.matchPair(ctx, o.w, o.z, o.wHeavy, o.zHeavy)
		c.matchPair(ctx, o.mate, o.q, o.mateHeavy, o.qHeavy)
	}
	c.ret(ctx, fl)
}

// scanFreeExcluding scans v's machines for a free neighbor other than
// excl, walking the suspended stack if needed; it returns with o.found
// set and, if found, the neighbor in o.q and its heaviness in o.qHeavy.
func (c *coordinator) scanFreeExcluding(ctx *mpc.Ctx, fl *flow, v int32, s stat, excl int32, ret step) {
	fl.push(ret)
	fl.vertexMachines(s)
	fl.op.v, fl.op.excl, fl.op.mi, fl.op.found = v, excl, 0, false
	c.scanFreeNext(ctx, fl)
}

func (c *coordinator) scanFreeNext(ctx *mpc.Ctx, fl *flow) {
	o := &fl.op
	if o.mi >= len(fl.machines) {
		c.ret(ctx, fl)
		return
	}
	m := fl.machines[o.mi]
	c.send(ctx, m, &storageReq{
		Kind: cScan, Seq: fl.seq, V: o.v, WantFree: true, Exclude: o.excl,
		H: c.suffixFor(m),
	})
	c.await(ctx, fl, 1, (*coordinator).scanFreeScanned)
}

func (c *coordinator) scanFreeScanned(ctx *mpc.Ctx, fl *flow) {
	o := &fl.op
	if r := fl.scanRep(); r.FoundFree {
		o.q, o.qHeavy, o.found = r.Rec.other, r.Rec.heavy, true
		c.ret(ctx, fl)
		return
	}
	o.mi++
	c.scanFreeNext(ctx, fl)
}

func (fl *flow) ctrOf(v int32) int32 {
	for _, r := range fl.ctrs {
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
func (c *coordinator) augSweep(ctx *mpc.Ctx, fl *flow, ret step) {
	fl.push(ret)
	fl.sweep = fl.sweep[:0]
	for v := range c.freed {
		fl.sweep = append(fl.sweep, v)
	}
	slices.Sort(fl.sweep)
	clear(c.freed)
	fl.op.si = 0
	c.sweepNext(ctx, fl)
}

func (c *coordinator) sweepNext(ctx *mpc.Ctx, fl *flow) {
	if fl.op.si >= len(fl.sweep) {
		c.ret(ctx, fl)
		return
	}
	// Flips from a previous rotation must land in the counters before the
	// next candidate reads them.
	c.counterFlush(ctx, fl, (*coordinator).sweepFlushed)
}

func (c *coordinator) sweepFlushed(ctx *mpc.Ctx, fl *flow) {
	c.aug3From(ctx, fl, fl.sweep[fl.op.si], (*coordinator).sweepTried)
}

func (c *coordinator) sweepTried(ctx *mpc.Ctx, fl *flow) {
	fl.op.si++
	c.sweepNext(ctx, fl)
}

// aug3From searches for an augmenting path of length 3 starting at z (a
// vertex that is free after the base update) and rotates the matching
// along it if found.
func (c *coordinator) aug3From(ctx *mpc.Ctx, fl *flow, z int32, ret step) {
	fl.push(ret)
	fl.op.z = z
	c.statsReq(ctx, fl, z, 0)
	c.await(ctx, fl, 1, (*coordinator).aug3FromStat)
}

func (c *coordinator) aug3FromStat(ctx *mpc.Ctx, fl *flow) {
	o := &fl.op
	s := fl.statOf(o.z)
	if s.mate >= 0 || s.deg == 0 {
		c.ret(ctx, fl)
		return
	}
	o.zHeavy = s.heavy
	machines := fl.vertexMachines(s)
	for _, m := range machines {
		c.send(ctx, m, &storageReq{Kind: cList, Seq: fl.seq, V: o.z, H: c.suffixFor(m)})
	}
	c.await(ctx, fl, len(machines), (*coordinator).aug3FromLists)
}

func (c *coordinator) aug3FromLists(ctx *mpc.Ctx, fl *flow) {
	o := &fl.op
	// Collect matched neighbors' mates; remember each mate's partner
	// record (z's neighbor, with its heaviness mirror). A free neighbor in
	// the list is matched immediately — the base logic normally prevents
	// this, but it preserves maximality under the rare fallback paths.
	if fl.partner == nil {
		fl.partner = make(map[int32]edgeRec)
	}
	clear(fl.partner)
	fl.mates = fl.mates[:0]
	for _, r := range fl.stores {
		if r.Kind != cListRep {
			continue
		}
		for _, rec := range r.Recs {
			if !rec.matched {
				c.matchPair(ctx, o.z, rec.other, o.zHeavy, rec.heavy)
				c.ret(ctx, fl)
				return
			}
			if rec.mate >= 0 {
				if _, dup := fl.partner[rec.mate]; !dup {
					fl.partner[rec.mate] = rec
					fl.mates = append(fl.mates, rec.mate)
				}
			}
		}
	}
	if len(fl.mates) == 0 {
		c.ret(ctx, fl)
		return
	}
	// Batched counter reads grouped by statistics machine.
	group := map[int32][]int32{}
	for _, mt := range fl.mates {
		group[c.statsOf(mt)] = append(group[c.statsOf(mt)], mt)
	}
	for sm, vs := range group {
		c.send(ctx, sm, &ctrMsg{Kind: cCtrGet, Seq: fl.seq, Vs: vs})
	}
	c.await(ctx, fl, len(group), (*coordinator).aug3FromCtrs)
}

func (c *coordinator) aug3FromCtrs(ctx *mpc.Ctx, fl *flow) {
	fl.rot = fl.rot[:0]
	for _, r := range fl.ctrs {
		for i, v := range r.Vs {
			if r.Ds[i] >= 1 {
				fl.rot = append(fl.rot, rotCand{mate: v, ctr: r.Ds[i]})
			}
		}
	}
	// Prefer counters >= 2 (always verifiable) and stable order.
	slices.SortFunc(fl.rot, func(a, b rotCand) int {
		if ca, cb := a.ctr >= 2, b.ctr >= 2; ca != cb {
			if ca {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.mate, b.mate)
	})
	fl.op.ri = 0
	c.tryRotate(ctx, fl)
}

// tryRotate verifies candidates in order: the mate must have a free
// neighbor other than z; the first verified candidate rotates the
// matching.
func (c *coordinator) tryRotate(ctx *mpc.Ctx, fl *flow) {
	o := &fl.op
	if o.ri >= len(fl.rot) {
		c.ret(ctx, fl) // no length-3 augmenting path through z
		return
	}
	o.mate = fl.rot[o.ri].mate
	c.statsReq(ctx, fl, o.mate, 0)
	c.await(ctx, fl, 1, (*coordinator).tryRotateStat)
}

func (c *coordinator) tryRotateStat(ctx *mpc.Ctx, fl *flow) {
	o := &fl.op
	sMate := fl.statOf(o.mate)
	wRec := fl.partner[o.mate]
	if sMate.mate != wRec.other {
		// A stale mirror or an earlier rotation re-matched this pair.
		o.ri++
		c.tryRotate(ctx, fl)
		return
	}
	o.w, o.wHeavy, o.mateHeavy = wRec.other, wRec.heavy, sMate.heavy
	c.scanFreeExcluding(ctx, fl, o.mate, sMate, o.z, (*coordinator).tryRotateScanned)
}

func (c *coordinator) tryRotateScanned(ctx *mpc.Ctx, fl *flow) {
	o := &fl.op
	if !o.found {
		o.ri++
		c.tryRotate(ctx, fl)
		return
	}
	c.unmatchPair(ctx, o.w, o.mate)
	c.matchPair(ctx, o.z, o.w, o.zHeavy, o.wHeavy)
	c.matchPair(ctx, o.mate, o.q, o.mateHeavy, o.qHeavy)
	c.ret(ctx, fl)
}
