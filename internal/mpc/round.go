package mpc

import (
	"slices"
	"sort"
)

// pairKey packs an ordered machine pair into one word: from (−1 for
// external input) and to in the two halves, exact while µ < 2³¹.
func pairKey(from, to int) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }

// stage is the one way into an inbox for a unicast (fanOut is the one for
// a broadcast): it appends msg to its destination's inbox through the
// pool, marks the destination pending and bills the pair table. Send
// (external input) and settle (handler output) call it after their own
// bounds check; the table is therefore current whenever the driver looks.
// Integer addition commutes and CommEntropy sums in sorted-volume order,
// so the order of calls never shows.
func (c *Cluster) stage(msg Message) {
	c.deliver(msg)
	c.stats.pairWords[pairKey(msg.From, msg.To)] += msg.Words
}

// deliver is stage without the billing, which fanOut does once per
// broadcast.
func (c *Cluster) deliver(msg Message) {
	c.inboxes[msg.To] = c.pool.grab(c.inboxes[msg.To], msg)
	c.Schedule(msg.To)
}

// fanOut is stage for a broadcast entry b (Ctx.Broadcast): it delivers one
// copy to every machine but b.To, each carrying b's sequence number, bills
// the sender's broadcast total once instead of µ pair entries, and returns
// the words sent.
func (c *Cluster) fanOut(b Message) int {
	skip := b.To
	b.seq = ^b.seq
	for to := range c.inboxes {
		if to != skip {
			b.To = to
			c.deliver(b)
		}
	}
	if c.stats.bcastWords == nil {
		c.stats.bcastWords = make(map[int][2]int)
	}
	total, recipients := c.stats.bcastWords[b.From], len(c.inboxes)
	if skip < 0 {
		total[0] += b.Words
	} else {
		total[1] += b.Words
		recipients--
	}
	c.stats.bcastWords[b.From] = total
	return recipients * b.Words
}

// beginRound turns the pending buffer into the round's active set
// (ascending machine id) and returns the delivery statistics. The emptied
// scratch becomes the next round's pending buffer, so the swap allocates
// nothing. The inPending markers are cleared here: nothing can mark
// between beginRound and settle (the driver is synchronous and handlers
// stage through their Ctx), and settle's staging re-marks the next
// round's receivers.
func (c *Cluster) beginRound() RoundStats {
	c.active, c.pending = c.pending, c.active[:0]
	slices.Sort(c.active)
	rs := RoundStats{Active: len(c.active)}
	for _, id := range c.active {
		c.inPending[id] = false
		rs.Messages += len(c.inboxes[id])
		for _, m := range c.inboxes[id] {
			rs.Words += m.Words
		}
	}
	if c.debugActive != nil {
		c.debugActive(c.active)
	}
	return rs
}

// handle runs machine id's handler for this round against ctx: context
// set-up, inbox sort, HandleRound unless the slot is empty. It is what
// every worker shard calls, and it touches only id's own inbox and ctx, so
// co-active machines may run it concurrently.
func (c *Cluster) handle(ctx *Ctx, id int) {
	ctx.cluster, ctx.self, ctx.round = c, id, c.stats.Rounds
	inbox := c.inboxes[id]
	sortInbox(inbox)
	if m := c.machines[id]; m != nil {
		m.HandleRound(ctx, inbox)
	}
}

// sortInbox orders a machine's inbox deterministically: by sender, then
// per-sender sequence number. Ties (external messages share From -1 and
// seq 0) keep arrival order — every path below is stable, so the result
// is independent of the worker count. settle stages in ascending sender order, so an
// inbox holding only handler output is in order already and costs one
// pass. Otherwise small inboxes take an allocation-free insertion sort
// instead of the reflective sort.SliceStable.
func sortInbox(inbox []Message) {
	first := 1 // the first message out of order
	for first < len(inbox) && !msgLess(inbox[first], inbox[first-1]) {
		first++
	}
	if first >= len(inbox) {
		return
	}
	if len(inbox) <= 32 {
		for i := first; i < len(inbox); i++ {
			for j := i; j > 0 && msgLess(inbox[j], inbox[j-1]); j-- {
				inbox[j], inbox[j-1] = inbox[j-1], inbox[j]
			}
		}
		return
	}
	sort.SliceStable(inbox, func(a, b int) bool { return msgLess(inbox[a], inbox[b]) })
}

func msgLess(a, b Message) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	return a.seq < b.seq
}

// settle is the deterministic round barrier: it retires the consumed
// inboxes into the pool (payload-cleared), then stages every active
// machine's outgoing messages and next-round schedules and merges its
// answers into the window's table in ascending machine order — the merge
// order that keeps delivery and violations bit-identical at every worker
// count — enforcing the per-machine I/O cap, which counts a broadcast's
// words once per recipient, and recycling each Ctx, and finally folds
// memory accounting.
func (c *Cluster) settle() {
	for _, id := range c.active {
		c.inboxes[id] = c.pool.retire(c.inboxes[id])
	}
	for i, id := range c.active {
		ctx := &c.slab[i]
		sent := 0
		for _, msg := range ctx.out {
			if msg.seq < 0 {
				sent += c.fanOut(msg)
				continue
			}
			sent += msg.Words
			if msg.To < 0 || msg.To >= len(c.machines) {
				c.violation("machine %d sent to invalid machine %d", id, msg.To)
				continue
			}
			c.stage(msg)
		}
		if sent > c.cfg.MemWords {
			c.violation("machine %d sent %d words in one round (cap %d)", id, sent, c.cfg.MemWords)
		}
		for _, s := range ctx.schedule {
			c.Schedule(s)
		}
		c.answers = append(c.answers, ctx.answers...)
		ctx.recycle()
	}
	for _, id := range c.active {
		if mr, ok := c.machines[id].(MemReporter); ok {
			w := mr.MemWords()
			if w > c.stats.PeakMemWords {
				c.stats.PeakMemWords = w
			}
			if w > c.cfg.MemWords {
				c.violation("machine %d uses %d words (cap %d)", id, w, c.cfg.MemWords)
			}
		}
	}
}
