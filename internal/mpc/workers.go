package mpc

import (
	"fmt"
	"math/bits"
	"sync"
)

// workerPool is how a round's handlers run, and the only way they do.
// Machines are statically sharded over min(Config.Workers, µ) shards —
// contiguous id blocks, one machine per shard once the worker count
// reaches µ — and each round the driver wakes exactly the workers whose
// shards hold active machines over per-worker channels. The active set is
// ascending and shards are contiguous id blocks, so shard si owns exactly
// the slab positions of its slice of the active set and outbox staging is
// lock-free per sender. The driver executes shard 0 itself while the
// woken workers run — with one shard (Workers ≤ 1, the default) every
// handler runs inline on the driver and no goroutine exists — and the
// drained done channel is the barrier. Everything that bills the model —
// delivery, staging order, pair accounting, caps — happens in the Cluster
// before and after, so the worker count cannot change the computation,
// only its speed. Close must be called to release the workers; the facade
// structures forward their Close to it.
type workerPool struct {
	c       *Cluster
	nshards int
	work    []chan struct{} // per-worker round signal, shards 1..nshards-1 (shard 0 is the driver's)
	done    chan struct{}   // round barrier: one token per woken worker
	exited  sync.WaitGroup  // the workers, for close

	// Per-round state, written by the driver before the wakes and read by
	// the workers (the channel send orders the accesses): the active set,
	// the context slab, and each shard's slice of both.
	active []int
	slab   []Ctx
	shards []shard
	closed bool
}

// shard is one shard's round: its [lo, hi) slice of the active set, and
// the handler panic that stopped it, if any — written by the goroutine
// running the shard, read by the driver after the barrier.
type shard struct {
	lo, hi int
	fault  *fault
}

// fault is a handler panic caught on the goroutine that ran it, parked
// until the driver re-raises it after the barrier.
type fault struct {
	machine int
	val     any
}

func newWorkerPool(c *Cluster, workers int) *workerPool {
	w := max(1, min(workers, c.cfg.Machines))
	p := &workerPool{
		c:       c,
		nshards: w,
		work:    make([]chan struct{}, w),
		done:    make(chan struct{}, w),
		shards:  make([]shard, w),
	}
	for si := 1; si < w; si++ {
		p.work[si] = make(chan struct{}, 1)
		p.exited.Add(1)
		go p.worker(si)
	}
	return p
}

// shardOf maps a machine id to its static worker shard (contiguous
// blocks, so a worker's machines stay cache-adjacent). The mapping is
// floor(id·nshards/µ) computed through a 128-bit intermediate: the naive
// id*nshards product overflows int for large µ on 32-bit platforms and
// near-MaxInt ids on 64-bit ones. The quotient always fits — id < µ, so
// id·nshards/µ < nshards — which also satisfies Div64's hi < divisor
// precondition.
func (p *workerPool) shardOf(id int) int {
	hi, lo := bits.Mul64(uint64(id), uint64(p.nshards))
	quo, _ := bits.Div64(hi, lo, uint64(p.c.cfg.Machines))
	return int(quo)
}

// worker is the long-lived loop of one shard: woken, it executes its
// shard's active machines and reports to the barrier. It exits when the
// work channel is closed.
func (p *workerPool) worker(si int) {
	defer p.exited.Done()
	for range p.work[si] {
		p.runShard(si)
		p.done <- struct{}{}
	}
}

// runShard runs the handlers of one shard's slice of the active set. Each
// slab slot is written only here, by the single goroutine executing this
// shard this round. A handler panic stops the shard and is parked in its
// fault slot, so the barrier still completes and the driver re-raises it.
func (p *workerPool) runShard(si int) {
	sh := &p.shards[si]
	i := sh.lo
	defer func() {
		if r := recover(); r != nil {
			sh.fault = &fault{machine: p.active[i], val: r}
		}
	}()
	for ; i < sh.hi; i++ {
		p.c.handle(&p.slab[i], p.active[i])
	}
}

// run wakes the involved workers, runs the driver's own share and drains
// the barrier. A shard's slice of the slab is the maximal run of
// positions whose machine ids it owns. A handler panic, on any shard,
// closes the cluster and re-panics here, on the driver, naming the lowest
// panicking machine id — the one a single shard would have stopped at.
func (p *workerPool) run(active []int, slab []Ctx) {
	if p.closed {
		panic("mpc: Round on a closed cluster")
	}
	p.active, p.slab = active, slab
	clear(p.shards)
	prev := -1
	for i, id := range active {
		si := p.shardOf(id)
		if si != prev {
			p.shards[si].lo = i
			prev = si
		}
		p.shards[si].hi = i + 1
	}

	involved := 0
	for si := 1; si < p.nshards; si++ {
		if p.shards[si].hi > p.shards[si].lo {
			p.work[si] <- struct{}{}
			involved++
		}
	}
	p.runShard(0)
	for ; involved > 0; involved-- {
		<-p.done
	}
	for _, sh := range p.shards {
		if f := sh.fault; f != nil {
			p.close()
			panic(fmt.Sprintf("mpc: machine %d panicked in round %d: %v", f.machine, p.c.stats.Rounds, f.val))
		}
	}
}

// close stops the worker goroutines and waits for them to exit.
// Idempotent; run panics afterwards.
func (p *workerPool) close() {
	if p.closed {
		return
	}
	p.closed = true
	for si := 1; si < p.nshards; si++ {
		close(p.work[si])
	}
	p.exited.Wait()
}
