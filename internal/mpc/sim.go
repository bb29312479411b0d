package mpc

import "sync"

// simExec is the sim backend's executor — the correctness and accounting
// oracle. It runs every active machine's handler on its own short-lived
// goroutine, at most cap(sem) at a time, so the race detector sees every
// pair of co-active machines on separate goroutines. Handler state is
// only ever touched by the machine's own handler, so results are
// independent of the worker bound (pinned by the determinism tests). A
// steady-state round's allocation bill is the goroutine spawns plus
// whatever the handlers allocate (TestSteadyStateAllocsPerRound).
type simExec struct {
	c   *Cluster
	sem chan struct{}
	wg  sync.WaitGroup
}

func newSimExec(c *Cluster, workers int) *simExec {
	return &simExec{c: c, sem: make(chan struct{}, workers)}
}

func (s *simExec) run(active []int, slab []Ctx) {
	for i, id := range active {
		s.wg.Add(1)
		s.sem <- struct{}{}
		go func(ctx *Ctx, id int) {
			defer s.wg.Done()
			defer func() { <-s.sem }()
			s.c.handle(ctx, id)
		}(&slab[i], id)
	}
	s.wg.Wait()
}

// close is a no-op: the sim executor holds no long-lived goroutines.
func (s *simExec) close() {}
