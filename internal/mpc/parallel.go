package mpc

import (
	"math/bits"
	"sync"
)

// parallelExec is the parallel backend's executor. Machines are statically
// sharded over long-lived worker goroutines — one machine per worker while
// µ fits under the worker cap, contiguous blocks above it — and each round
// the driver wakes exactly the workers whose shards hold active machines
// over per-worker channels. The active set is ascending and shards are
// contiguous id blocks, so worker si owns exactly the slab positions of
// its slice of the active set and outbox staging is lock-free per sender.
// The driver executes shard 0 itself while the woken workers run — a round
// confined to shard 0 costs no channel traffic at all — and the drained
// done channel is the barrier. Close must be called to release the
// workers; the facade structures forward their Close to it.
type parallelExec struct {
	c       *Cluster
	nshards int
	work    []chan struct{} // per-worker round signal, shards 1..nshards-1 (shard 0 is the driver's)
	done    chan struct{}   // round barrier: one token per woken worker
	exited  sync.WaitGroup  // the workers, for close

	// Per-round state, written by the driver before the wakes and read by
	// the workers (the channel send orders the accesses): the active set,
	// the context slab, and each shard's [lo, hi) slice of both.
	active []int
	slab   []Ctx
	lo, hi []int
	closed bool
}

func newParallelExec(c *Cluster, workers int) *parallelExec {
	w := max(1, min(workers, c.cfg.Machines))
	p := &parallelExec{
		c:       c,
		nshards: w,
		work:    make([]chan struct{}, w),
		done:    make(chan struct{}, w),
		lo:      make([]int, w),
		hi:      make([]int, w),
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
func (p *parallelExec) shardOf(id int) int {
	hi, lo := bits.Mul64(uint64(id), uint64(p.nshards))
	quo, _ := bits.Div64(hi, lo, uint64(p.c.cfg.Machines))
	return int(quo)
}

// worker is the long-lived loop of one shard: woken, it executes its
// shard's active machines and reports to the barrier. It exits when the
// work channel is closed.
func (p *parallelExec) worker(si int) {
	defer p.exited.Done()
	for range p.work[si] {
		p.runShard(si)
		p.done <- struct{}{}
	}
}

// runShard runs the handlers of one shard's slice of the active set. Each
// slab slot is written only here, by the single goroutine executing this
// shard this round.
func (p *parallelExec) runShard(si int) {
	for i := p.lo[si]; i < p.hi[si]; i++ {
		p.c.handle(&p.slab[i], p.active[i])
	}
}

// run wakes the involved workers, runs the driver's own share and drains
// the barrier. A shard's slice of the slab is the maximal run of
// positions whose machine ids it owns.
func (p *parallelExec) run(active []int, slab []Ctx) {
	if p.closed {
		panic("mpc: Round on a closed cluster")
	}
	p.active, p.slab = active, slab
	clear(p.lo)
	clear(p.hi)
	prev := -1
	for i, id := range active {
		si := p.shardOf(id)
		if si != prev {
			p.lo[si] = i
			prev = si
		}
		p.hi[si] = i + 1
	}

	involved := 0
	for si := 1; si < p.nshards; si++ {
		if p.hi[si] > p.lo[si] {
			p.work[si] <- struct{}{}
			involved++
		}
	}
	p.runShard(0)
	for ; involved > 0; involved-- {
		<-p.done
	}
}

// close stops the worker goroutines and waits for them to exit.
// Idempotent; run panics afterwards.
func (p *parallelExec) close() {
	if p.closed {
		return
	}
	p.closed = true
	for si := 1; si < p.nshards; si++ {
		close(p.work[si])
	}
	p.exited.Wait()
}
