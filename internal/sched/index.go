package sched

import (
	"math"
	"slices"
)

// noOp is what an empty opQueue reports as its first op: later than every
// batch position.
const noOp = math.MaxInt

// opQueue is a FIFO of batch positions in ascending order, popped at the
// head in O(1); entries leave from the middle and arrive out of order only
// when a re-read moves an op to other keys.
type opQueue struct {
	ops  []int
	head int
}

func (q *opQueue) reset()      { q.ops, q.head = q.ops[:0], 0 }
func (q *opQueue) live() []int { return q.ops[q.head:] }

func (q *opQueue) first() int {
	if q.head == len(q.ops) {
		return noOp
	}
	return q.ops[q.head]
}

func (q *opQueue) insert(op int) {
	if n := len(q.ops); n == q.head || q.ops[n-1] < op {
		q.ops = append(q.ops, op)
		return
	}
	j, _ := slices.BinarySearch(q.live(), op)
	q.ops = slices.Insert(q.ops, q.head+j, op)
}

// remove drops op, which must be queued.
func (q *opQueue) remove(op int) {
	if q.ops[q.head] == op {
		q.head++
	} else {
		j, _ := slices.BinarySearch(q.live(), op)
		q.ops = slices.Delete(q.ops, q.head+j, q.head+j+1)
	}
	if q.head == len(q.ops) {
		q.reset()
	}
}

// keyQueue holds the pending ops naming one key, exclusive claimants and
// readers apart, so "who is first" and "is an exclusive claimant ahead of
// this reader" are both one comparison of queue heads.
type keyQueue struct {
	excl, read opQueue
	touched    uint32 // pendingIndex.epoch of the last change, to list the key once
}

// pendingOp is the index's record of one batch position.
type pendingOp struct {
	pending bool
	ready   bool   // listed in pendingIndex.ready
	staleAt uint32 // the epoch the op was last listed for a re-read
	// The queues the op is filed in (positions in pendingIndex.queues), one
	// per distinct key of its stored item: the first nexcl as an exclusive
	// claimant, the rest as a reader.
	queues []int
	nexcl  int
}

// pendingIndex is Drive's working state: every op's item as last read, and,
// over the ops the first wave left pending, a FIFO per key of the ops naming
// it and the ready list — the key-free ops, those with no earlier pending
// conflicter on any of their keys. Key-free is exactly "a whole-slice scan
// could admit it": every earlier pending op records its keys when offered,
// joined or not, so an op behind a conflicter is refused for certain. The
// index only spares the packer those certain refusals; who of the ready ops
// joins is still admit's decision.
//
// All buffers are retained across batches; ops are batch positions.
type pendingIndex struct {
	items []Item // the batch's items as last read, by batch position
	ops   []pendingOp
	npend int

	qid    map[int64]int // key -> position in queues
	queues []keyQueue    // queues[:nq] are in use this batch
	nq     int
	solos  opQueue // pending Solo ops: they name every key and sit in no keyQueue

	ready []int // key-free pending ops, in batch order

	// What changed since the ready list was last refreshed.
	epoch   uint32
	changed []int // keys (positions in queues) an op left or joined
	cand    []int // ops to consider directly: the initial set, and re-keyed ops
	rekeyed bool  // an op joined a queue mid-batch: ready ops may have lost their place

	stale []int // scratch: ops to re-read
}

// resized returns s with length n, keeping every slot it already had: the
// slots' own slices keep their capacity from batch to batch.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// reset sizes the item store for a batch of n ops.
func (x *pendingIndex) reset(n int) { x.items = resized(x.items, n) }

// store records src as op i's item.
func (x *pendingIndex) store(i int, src *Item) {
	it := &x.items[i]
	it.Excl = append(it.Excl[:0], src.Excl...)
	it.Read = append(it.Read[:0], src.Read...)
	it.Shared = append(it.Shared[:0], src.Shared...)
	it.Solo, it.Tenant, it.Stable = src.Solo, src.Tenant, src.Stable
}

// build indexes the pending ops (ascending) over the stored items.
func (x *pendingIndex) build(pending []int) {
	x.ops = resized(x.ops, len(x.items))
	for i := range x.ops {
		x.ops[i] = pendingOp{queues: x.ops[i].queues[:0]}
	}
	x.npend = len(pending)
	if x.qid == nil {
		x.qid = make(map[int64]int)
	}
	clear(x.qid)
	x.nq = 0
	x.solos.reset()
	x.ready = x.ready[:0]
	x.epoch, x.rekeyed = 1, false
	for _, i := range pending {
		x.ops[i].pending = true
		x.enqueue(i)
	}
	// Every pending op is a candidate, so the keys enqueue listed add nothing.
	x.cand = append(x.cand[:0], pending...)
	x.epoch, x.changed = 2, x.changed[:0]
}

// queue returns the position of k's queue, opening an empty one on first
// use, and lists it as changed.
func (x *pendingIndex) queue(k int64) int {
	qi, ok := x.qid[k]
	if !ok {
		qi = x.nq
		x.nq++
		if qi == len(x.queues) {
			x.queues = append(x.queues, keyQueue{})
		}
		q := &x.queues[qi]
		q.excl.reset()
		q.read.reset()
		q.touched = 0
		x.qid[k] = qi
	}
	x.touch(qi)
	return qi
}

func (x *pendingIndex) touch(qi int) {
	if q := &x.queues[qi]; q.touched != x.epoch {
		q.touched = x.epoch
		x.changed = append(x.changed, qi)
	}
}

// enqueue files op i under the keys of its stored item, once per key: a key
// named twice counts once, and an exclusive claim subsumes a read of the
// same key (admit treats both so).
func (x *pendingIndex) enqueue(i int) {
	it, op := &x.items[i], &x.ops[i]
	if it.Solo {
		x.solos.insert(i)
		return
	}
	for j, k := range it.Excl {
		if !slices.Contains(it.Excl[:j], k) {
			qi := x.queue(k)
			x.queues[qi].excl.insert(i)
			op.queues = append(op.queues, qi)
		}
	}
	op.nexcl = len(op.queues)
	for j, k := range it.Read {
		if !slices.Contains(it.Excl, k) && !slices.Contains(it.Read[:j], k) {
			qi := x.queue(k)
			x.queues[qi].read.insert(i)
			op.queues = append(op.queues, qi)
		}
	}
}

// dequeue undoes enqueue.
func (x *pendingIndex) dequeue(i int) {
	op := &x.ops[i]
	if x.items[i].Solo {
		x.solos.remove(i)
		return
	}
	for j, qi := range op.queues {
		if j < op.nexcl {
			x.queues[qi].excl.remove(i)
		} else {
			x.queues[qi].read.remove(i)
		}
		x.touch(qi)
	}
	op.queues = op.queues[:0]
}

// keyFree reports whether no earlier pending op conflicts with op i on any
// key: i is the first claimant of every key it holds exclusively, and no
// exclusive claimant precedes it on a key it reads.
func (x *pendingIndex) keyFree(i int) bool {
	if x.items[i].Solo {
		return false // a Solo op is offered from solos, never from ready
	}
	op := &x.ops[i]
	for j, qi := range op.queues {
		q := &x.queues[qi]
		if j < op.nexcl {
			if q.excl.first() != i || q.read.first() < i {
				return false
			}
		} else if q.excl.first() < i {
			return false
		}
	}
	return true
}

// retire takes an executed wave out of the index and returns how many ops
// remain pending.
func (x *pendingIndex) retire(wave []int) int {
	for _, i := range wave {
		x.ops[i].pending = false
		x.dequeue(i)
	}
	x.npend -= len(wave)
	return x.npend
}

// reread brings the stored items up to date after wave executed: it re-reads
// the pending ops naming a key the wave dirtied — every exclusive key of an
// executed item that is not Stable; every pending op after such a Solo — and
// re-files those whose keys moved. A pending Solo op names every key, so it
// is re-read whenever anything was dirtied.
func (x *pendingIndex) reread(wave []int, item func(i int) Item) {
	stale := x.stale[:0]
	list := func(ops []int) {
		for _, j := range ops {
			if op := &x.ops[j]; op.staleAt != x.epoch {
				op.staleAt = x.epoch
				stale = append(stale, j)
			}
		}
	}
	dirtied := false
	for _, i := range wave {
		it := &x.items[i]
		if it.Stable {
			continue
		}
		if it.Solo {
			stale = stale[:0]
			for j := range x.ops {
				if x.ops[j].pending {
					stale = append(stale, j)
				}
			}
			dirtied = false // the pending Solo ops are listed with the rest
			break
		}
		for _, k := range it.Excl {
			dirtied = true
			if qi, ok := x.qid[k]; ok {
				list(x.queues[qi].excl.live())
				list(x.queues[qi].read.live())
			}
		}
	}
	if dirtied {
		list(x.solos.live())
	}
	for _, j := range stale {
		fresh := item(j)
		old := &x.items[j]
		if old.Solo == fresh.Solo && slices.Equal(old.Excl, fresh.Excl) && slices.Equal(old.Read, fresh.Read) {
			// Same keys: the op keeps its place in every queue.
			old.Shared = append(old.Shared[:0], fresh.Shared...)
			old.Tenant, old.Stable = fresh.Tenant, fresh.Stable
			continue
		}
		x.dequeue(j)
		x.store(j, &fresh)
		x.enqueue(j)
		x.cand = append(x.cand, j)
		x.rekeyed = true
	}
	x.stale = stale
}

// refresh brings the ready list up to date with the queues: executed ops
// leave it, ops a re-keyed op moved in front of leave it, and the ops now at
// the front of a changed key — or re-keyed themselves — join if key-free.
func (x *pendingIndex) refresh() {
	kept := x.ready[:0]
	for _, i := range x.ready {
		if x.ops[i].pending && (!x.rekeyed || x.keyFree(i)) {
			kept = append(kept, i)
		} else {
			x.ops[i].ready = false
		}
	}
	x.ready = kept
	sorted := true
	consider := func(i int) {
		if x.ops[i].ready || !x.keyFree(i) {
			return
		}
		x.ops[i].ready = true
		if n := len(x.ready); n > 0 && x.ready[n-1] > i {
			sorted = false
		}
		x.ready = append(x.ready, i)
	}
	for _, qi := range x.changed {
		q := &x.queues[qi]
		if e := q.excl.first(); e < q.read.first() {
			consider(e)
		} else {
			for _, r := range q.read.live() {
				if r > e {
					break
				}
				consider(r)
			}
		}
	}
	for _, i := range x.cand {
		consider(i)
	}
	if !sorted {
		slices.Sort(x.ready)
	}
	x.epoch++
	x.changed, x.cand, x.rekeyed = x.changed[:0], x.cand[:0], false
}
