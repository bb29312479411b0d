package dmm

import (
	"dmpc/internal/mpc"
)

// Orchestration of one update at MC, §3's insert(x,y) / delete(x,y). The
// update runs as a fixed sequence of steps over its flow, each step
// costing one or two cluster rounds and touching O(1) machines; the H
// suffixes riding on the messages bound communication by O(√N) words per
// round. A step that waits for replies parks the flow on the step that
// reads them (await). Helpers shared by several steps — transitions,
// storage placement, rematching — take the step they return to, push it
// on entry and leave through ret; a helper that finishes with another
// hands its own return step on (fl.pop()). What a step reads after a
// round trip it finds on the flow: the update's operands and the running
// helper's in fl.op, lists in the flow's scratch.

func (c *coordinator) startUpdate(ctx *mpc.Ctx, fl *flow, del bool) {
	if fl.op.x == fl.op.y {
		c.updateDone(ctx, fl)
		return
	}
	if del {
		c.startDelete(ctx, fl)
	} else {
		c.startInsert(ctx, fl)
	}
}

func (c *coordinator) statsReq(ctx *mpc.Ctx, fl *flow, v, delta int32) {
	m := statsReq{Seq: fl.seq, V: v, DegDelta: delta}
	c.reqs.Send(ctx, int(c.statsOf(v)), m, m.words())
}

// --- insert -------------------------------------------------------------

// startInsert assumes a well-formed stream (no duplicate inserts, no
// deletes of absent edges), the standard contract for dynamic algorithms;
// the degree bookkeeping on the statistics machines relies on it.
func (c *coordinator) startInsert(ctx *mpc.Ctx, fl *flow) {
	x, y := fl.op.x, fl.op.y
	c.hAppend(hentry{op: hEdgeIns, a: x, b: y})
	c.statsReq(ctx, fl, x, +1)
	c.statsReq(ctx, fl, y, +1)
	c.await(ctx, fl, 2, (*coordinator).insertStats)
}

func (c *coordinator) insertStats(ctx *mpc.Ctx, fl *flow) {
	o := &fl.op
	o.sx, o.sy = fl.statOf(o.x), fl.statOf(o.y)
	if c.threeHalves {
		// §4 edge event: the new edge contributes the endpoints'
		// pre-matching statuses to each other's counters.
		c.ctrEdgeEvent(ctx, o.x, o.y, o.sx.mate < 0, o.sy.mate < 0, true)
	}
	// Mirror records need the heaviness of the endpoints' mates.
	need := 0
	if o.sx.mate >= 0 {
		c.statsReq(ctx, fl, o.sx.mate, 0)
		need++
	}
	if o.sy.mate >= 0 && o.sy.mate != o.sx.mate {
		c.statsReq(ctx, fl, o.sy.mate, 0)
		need++
	}
	c.await(ctx, fl, need, (*coordinator).insertMates)
}

func (c *coordinator) insertMates(ctx *mpc.Ctx, fl *flow) {
	o := &fl.op
	o.xMateHeavy = o.sx.mate >= 0 && fl.statOf(o.sx.mate).heavy
	o.yMateHeavy = o.sy.mate >= 0 && fl.statOf(o.sy.mate).heavy
	c.transitionUp(ctx, fl, o.x, &o.sx, (*coordinator).insertUpY)
}

func (c *coordinator) insertUpY(ctx *mpc.Ctx, fl *flow) {
	c.transitionUp(ctx, fl, fl.op.y, &fl.op.sy, (*coordinator).insertStoreX)
}

func (c *coordinator) insertStoreX(ctx *mpc.Ctx, fl *flow) {
	o := &fl.op
	rec := edgeRec{other: o.y, matched: o.sy.mate >= 0, mate: o.sy.mate, heavy: o.sy.heavy, mateHeavy: o.yMateHeavy}
	c.storeOne(ctx, fl, o.x, &o.sx, rec, (*coordinator).insertStoreY)
}

// insertStoreY stores y's copy; storing x's changed none of the fields of
// sx the record mirrors.
func (c *coordinator) insertStoreY(ctx *mpc.Ctx, fl *flow) {
	o := &fl.op
	rec := edgeRec{other: o.x, matched: o.sx.mate >= 0, mate: o.sx.mate, heavy: o.sx.heavy, mateHeavy: o.xMateHeavy}
	c.storeOne(ctx, fl, o.y, &o.sy, rec, (*coordinator).insertMatch)
}

// insertMatch applies §3's case analysis after the edge is stored.
func (c *coordinator) insertMatch(ctx *mpc.Ctx, fl *flow) {
	if c.threeHalves {
		c.insertMatch32(ctx, fl)
		return
	}
	o := &fl.op
	xFree, yFree := o.sx.mate < 0, o.sy.mate < 0
	switch {
	case xFree && yFree:
		c.matchPair(ctx, o.x, o.y, o.sx.heavy, o.sy.heavy)
		c.finishUpdate(ctx, fl)
	case xFree && o.sx.heavy:
		c.surrogate(ctx, fl, o.x, o.sx, (*coordinator).finishUpdate)
	case yFree && o.sy.heavy:
		c.surrogate(ctx, fl, o.y, o.sy, (*coordinator).finishUpdate)
	default:
		c.finishUpdate(ctx, fl)
	}
}

// --- delete -------------------------------------------------------------

func (c *coordinator) startDelete(ctx *mpc.Ctx, fl *flow) {
	x, y := fl.op.x, fl.op.y
	c.hAppend(hentry{op: hEdgeDel, a: x, b: y})
	c.statsReq(ctx, fl, x, -1)
	c.statsReq(ctx, fl, y, -1)
	c.await(ctx, fl, 2, (*coordinator).deleteStats)
}

func (c *coordinator) deleteStats(ctx *mpc.Ctx, fl *flow) {
	o := &fl.op
	o.sx, o.sy = fl.statOf(o.x), fl.statOf(o.y)
	o.wasMatched = o.sx.mate == o.y
	if c.threeHalves {
		// §4 edge event with pre-deletion statuses.
		c.ctrEdgeEvent(ctx, o.x, o.y, o.sx.mate < 0, o.sy.mate < 0, false)
	}
	if o.wasMatched {
		c.unmatchPair(ctx, o.x, o.y)
		o.sx.mate, o.sy.mate = -1, -1
	}
	c.transitionDown(ctx, fl, o.x, &o.sx, (*coordinator).deleteDownY)
}

func (c *coordinator) deleteDownY(ctx *mpc.Ctx, fl *flow) {
	c.transitionDown(ctx, fl, fl.op.y, &fl.op.sy, (*coordinator).deleteRematch)
}

func (c *coordinator) deleteRematch(ctx *mpc.Ctx, fl *flow) {
	if !fl.op.wasMatched {
		c.finishUpdate(ctx, fl)
		return
	}
	c.rematch(ctx, fl, fl.op.x, (*coordinator).deleteRematchY)
}

func (c *coordinator) deleteRematchY(ctx *mpc.Ctx, fl *flow) {
	c.rematch(ctx, fl, fl.op.y, (*coordinator).finishUpdate)
}

// rematch re-reads v's authoritative stat (the x-side rematch may already
// have matched y through an augmenting steal) and restores maximality
// around v.
func (c *coordinator) rematch(ctx *mpc.Ctx, fl *flow, v int32, ret step) {
	fl.push(ret)
	fl.op.v = v
	c.statsReq(ctx, fl, v, 0)
	c.await(ctx, fl, 1, (*coordinator).rematchStat)
}

func (c *coordinator) rematchStat(ctx *mpc.Ctx, fl *flow) {
	v := fl.op.v
	s := fl.statOf(v)
	switch {
	case s.mate >= 0 || s.deg == 0:
		c.ret(ctx, fl)
	case !s.heavy:
		c.rematchLightKnown(ctx, fl, v, s, fl.pop())
	default:
		c.surrogate(ctx, fl, v, s, fl.pop())
	}
}

// rematchLightKnown scans the light vertex's single home machine for a
// free neighbor.
func (c *coordinator) rematchLightKnown(ctx *mpc.Ctx, fl *flow, v int32, s stat, ret step) {
	fl.push(ret)
	if s.home < 0 {
		c.ret(ctx, fl)
		return
	}
	c.send(ctx, s.home, &storageReq{
		Kind: cScan, Seq: fl.seq, V: v, WantFree: true, Exclude: -1,
		H: c.suffixFor(s.home),
	})
	fl.op.v, fl.op.heavy = v, s.heavy
	c.await(ctx, fl, 1, (*coordinator).rematchLightScanned)
}

func (c *coordinator) rematchLightScanned(ctx *mpc.Ctx, fl *flow) {
	if r := fl.scanRep(); r.FoundFree {
		c.matchPair(ctx, fl.op.v, r.Rec.other, fl.op.heavy, r.Rec.heavy)
	}
	c.ret(ctx, fl)
}

// surrogate restores Invariant 3.1 for a free heavy vertex v: match a free
// alive neighbor if any, otherwise steal a neighbor w whose mate z is
// light, then rematch z from its own (single-machine) adjacency. If the
// alive window offers neither, the suspended stack is scanned as a counted
// fallback.
func (c *coordinator) surrogate(ctx *mpc.Ctx, fl *flow, v int32, s stat, ret step) {
	fl.push(ret)
	fl.machines = append(append(fl.machines[:0], s.home), s.suspended...)
	fl.op.v, fl.op.heavy, fl.op.mi = v, s.heavy, 0
	c.surrogateScan(ctx, fl)
}

func (c *coordinator) surrogateScan(ctx *mpc.Ctx, fl *flow) {
	o := &fl.op
	if o.mi >= len(fl.machines) {
		c.ret(ctx, fl) // v stays free; all neighbors are matched with heavy mates
		return
	}
	if o.mi == 1 {
		c.fallbacks++
	}
	m := fl.machines[o.mi]
	if m < 0 {
		c.ret(ctx, fl)
		return
	}
	c.send(ctx, m, &storageReq{
		Kind: cScan, Seq: fl.seq, V: o.v, WantFree: true, WantSteal: true, Exclude: -1,
		H: c.suffixFor(m),
	})
	c.await(ctx, fl, 1, (*coordinator).surrogateScanned)
}

func (c *coordinator) surrogateScanned(ctx *mpc.Ctx, fl *flow) {
	o := &fl.op
	r := fl.scanRep()
	switch {
	case r.FoundFree:
		c.matchPair(ctx, o.v, r.Rec.other, o.heavy, r.Rec.heavy)
		c.ret(ctx, fl)
	case r.FoundSteal:
		w, z := r.Rec.other, r.Rec.mate
		c.unmatchPair(ctx, w, z)
		c.matchPair(ctx, o.v, w, o.heavy, r.Rec.heavy)
		c.rematchLight(ctx, fl, z, fl.pop())
	default:
		o.mi++
		c.surrogateScan(ctx, fl)
	}
}

// rematchLight fetches z's stat first (the steal just freed it).
func (c *coordinator) rematchLight(ctx *mpc.Ctx, fl *flow, z int32, ret step) {
	fl.push(ret)
	fl.op.v = z
	c.statsReq(ctx, fl, z, 0)
	c.await(ctx, fl, 1, (*coordinator).rematchLightStat)
}

func (c *coordinator) rematchLightStat(ctx *mpc.Ctx, fl *flow) {
	s := fl.statOf(fl.op.v)
	if s.mate >= 0 {
		c.ret(ctx, fl)
		return
	}
	c.rematchLightKnown(ctx, fl, fl.op.v, s, fl.pop())
}

// --- transitions & storage placement ------------------------------------

// transitionUp promotes v to heavy when an insertion pushes its degree to
// the threshold: a fresh alive machine takes the first aliveCap records,
// the remainder goes to a fresh suspended machine.
func (c *coordinator) transitionUp(ctx *mpc.Ctx, fl *flow, v int32, s *stat, ret step) {
	fl.push(ret)
	if s.heavy || int(s.deg) < c.heavyAt {
		c.ret(ctx, fl)
		return
	}
	s.heavy = true
	c.hAppend(hentry{op: hHeavyOn, a: v})
	c.setField(ctx, v, fHeavy, 1)
	if s.home < 0 {
		// Degenerate: no stored edges yet (cannot happen at threshold >= 1).
		c.ret(ctx, fl)
		return
	}
	alive := c.allocate(mkExclusive, int32(c.mem))
	susp := c.allocate(mkExclusive, int32(c.mem))
	old := s.home
	c.send(ctx, old, &storageReq{
		Kind: cMoveOut, Seq: fl.seq, V: v, Target: alive, Keep: int32(c.aliveCap), Overflow: susp,
		H: c.suffixFor(old),
	})
	fl.op.v, fl.op.s, fl.op.target, fl.op.overflow = v, s, alive, susp
	// Three acks: source, alive target, overflow target.
	c.await(ctx, fl, 3, (*coordinator).transitionUpMoved)
}

func (c *coordinator) transitionUpMoved(ctx *mpc.Ctx, fl *flow) {
	v, s, alive, susp := fl.op.v, fl.op.s, fl.op.target, fl.op.overflow
	kept := fl.ackCount(alive)
	overflowed := fl.ackCount(susp)
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
	c.ret(ctx, fl)
}

// transitionDown demotes v to light when a deletion drops its degree below
// the threshold: alive and suspended records consolidate onto one shared
// light machine.
func (c *coordinator) transitionDown(ctx *mpc.Ctx, fl *flow, v int32, s *stat, ret step) {
	fl.push(ret)
	if !s.heavy || int(s.deg) >= c.heavyAt {
		c.ret(ctx, fl)
		return
	}
	s.heavy = false
	c.hAppend(hentry{op: hHeavyOff, a: v})
	c.setField(ctx, v, fHeavy, 0)
	fl.machines = append(append(fl.machines[:0], s.home), s.suspended...)
	target := c.allocate(mkLight, (s.deg+2)*edgeWords)
	// A shared target may hold other vertices' records behind the history;
	// sync it now so the records arriving next round are not corrupted by
	// a later suffix replay.
	c.refresh(ctx, target)
	for _, src := range fl.machines {
		c.send(ctx, src, &storageReq{
			Kind: cMoveOut, Seq: fl.seq, V: v, Target: target, Keep: -1, Overflow: -1,
			H: c.suffixFor(src),
		})
	}
	fl.op.v, fl.op.s, fl.op.target = v, s, target
	// Each source acks, and the target acks each shipment.
	c.await(ctx, fl, 2*len(fl.machines), (*coordinator).transitionDownMoved)
}

func (c *coordinator) transitionDownMoved(ctx *mpc.Ctx, fl *flow) {
	v, s, target := fl.op.v, fl.op.s, fl.op.target
	for _, src := range fl.machines {
		c.release(src)
	}
	s.home = target
	s.aliveCnt = 0
	s.suspended = nil
	c.setHome(ctx, v, target)
	c.setCnt(ctx, v, 0)
	c.setSusp(ctx, v, nil)
	c.ret(ctx, fl)
}

// storeOne places v's copy of a new edge record, relocating v's light list
// when its home machine is full (the paper's moveEdges/toFit).
func (c *coordinator) storeOne(ctx *mpc.Ctx, fl *flow, v int32, s *stat, rec edgeRec, ret step) {
	fl.push(ret)
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
		c.ret(ctx, fl)
		return
	}
	// Light vertex.
	if s.home < 0 {
		s.home = c.allocate(mkLight, edgeWords*(s.deg+2))
		c.setHome(ctx, v, s.home)
	}
	if c.freeWords[s.home] >= edgeWords {
		c.sendStore(ctx, s.home, v, rec)
		c.ret(ctx, fl)
		return
	}
	// Relocate the whole list to a machine that fits it plus the new
	// record. Sync the shared target first (see transitionDown).
	target := c.allocate(mkLight, edgeWords*(s.deg+2))
	old := s.home
	c.refresh(ctx, target)
	c.send(ctx, old, &storageReq{
		Kind: cMoveOut, Seq: fl.seq, V: v, Target: target, Keep: -1, Overflow: -1,
		H: c.suffixFor(old),
	})
	fl.op.v, fl.op.s, fl.op.target, fl.op.rec = v, s, target, rec
	c.await(ctx, fl, 2, (*coordinator).storeOneMoved)
}

func (c *coordinator) storeOneMoved(ctx *mpc.Ctx, fl *flow) {
	v, s, target := fl.op.v, fl.op.s, fl.op.target
	s.home = target
	c.setHome(ctx, v, target)
	c.sendStore(ctx, target, v, fl.op.rec)
	c.ret(ctx, fl)
}
