package mpc

// Per-round memory pooling for the round loop: the Ctx slab, the inbox
// backing arrays and the per-handler outboxes are all recycled, so a
// bounded-active-set round settles at ~zero allocations (pinned by
// TestSteadyStateAllocsPerRound).
//
// The one rule that makes recycling safe is the payload-clearing rule: a
// retired []Message backing array holds Payload pointers, and parking it
// in a free-list un-cleared would pin every payload of the round for the
// pool's lifetime. Every retirement therefore zeroes the consumed elements
// before banking the array. Elements beyond len(s) stay zero by
// induction — fresh arrays start zeroed and append only writes the
// elements that become part of len — so clearing len, not cap, suffices.
//
// The delivery guarantee Outbox relies on: a message a handler stages in
// round r (Ctx.Round() = r), or that Send injects while Stats().Rounds =
// r, is consumed in the next round, r+1 resp. r, and no later — settle
// retires every inbox it ran.

// Outbox holds what one sender sends, so a send allocates nothing: a
// sender (a machine, or a driver for what it injects) owns one per payload
// type, in two slabs by the parity of the round a payload is sent in. The
// payload rule: a payload is immutable and lives until the end of the
// round after the one it was sent in, and a receiver copies what it keeps.
// The delivery guarantee above consumes a message no later than that, so
// the first Put in round r+2 resets slab r&1. A reset clears the slab's
// slots (the payload-clearing rule again: a stale slot would pin whatever
// it referenced), so elements beyond len are zero by induction. The zero
// Outbox is empty and ready. amm, dmm and dyncon send their per-update
// payloads through Outboxes.
type Outbox[T any] struct {
	slab [2][]T
	at   [2]int // the round each slab was last reset in
}

// Put copies v into a slot of round r's slab and returns the slot: the
// payload to send in round r (Ctx.Round() for a handler's send; Inject
// puts a driver's injection at Stats().Rounds).
func (o *Outbox[T]) Put(r int, v T) *T {
	p := r & 1
	if o.at[p] != r {
		clear(o.slab[p])
		o.at[p], o.slab[p] = r, o.slab[p][:0]
	}
	o.slab[p] = append(o.slab[p], v)
	return &o.slab[p][len(o.slab[p])-1]
}

// Send is ctx.Send of a copy of v that lives in o.
func (o *Outbox[T]) Send(ctx *Ctx, to int, v T, words int) {
	ctx.Send(to, o.Put(ctx.round, v), words)
}

// Inject is c.Send of a copy of v that lives in o: a driver injection
// (From -1), its payload put at c's current round, the round the delivery
// guarantee consumes it in.
func (o *Outbox[T]) Inject(c *Cluster, to int, v T, words int) {
	c.Send(Message{From: -1, To: to, Payload: o.Put(c.Stats().Rounds, v), Words: words})
}

// msgPool is a free-list of retired []Message backing arrays, shared by
// the inboxes and refilled by settle each round. It is owned by the
// driver goroutine; handlers never touch it.
type msgPool struct {
	free [][]Message
}

// retire zeroes a consumed message slice (the payload-clearing rule),
// banks its backing array for reuse, and returns the nil slice the
// consumer stores back. A never-grown slice has nothing to bank.
func (p *msgPool) retire(ms []Message) []Message {
	if cap(ms) == 0 {
		return nil
	}
	clear(ms)
	p.free = append(p.free, ms[:0])
	return nil
}

// grab appends msg to ms, seeding an empty slice from the free-list so a
// machine receiving its first message of the round reuses a retired
// backing array instead of growing from nil.
func (p *msgPool) grab(ms []Message, msg Message) []Message {
	if cap(ms) == 0 {
		if n := len(p.free); n > 0 {
			ms = p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
		}
	}
	return append(ms, msg)
}

// growSlab returns a Ctx slab with at least n slots, preserving recycled
// slots' buffers' backing arrays across growth. Slots are recycled
// (payload-cleared and truncated) by settle, so a reused slot's only live
// state is its empty backing arrays.
func growSlab(slab []Ctx, n int) []Ctx {
	if cap(slab) < n {
		grown := make([]Ctx, n)
		copy(grown, slab[:cap(slab)])
		return grown
	}
	return slab[:n]
}

// recycle resets a Ctx for reuse in a later round: the staged messages
// and answers were already copied out by settle, so the only thing the
// slot may keep is the backing arrays — the outbox zeroed first, per the
// payload-clearing rule (answers hold no pointers).
func (ctx *Ctx) recycle() {
	clear(ctx.out)
	ctx.out = ctx.out[:0]
	ctx.answers = ctx.answers[:0]
}
