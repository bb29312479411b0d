package mpc

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// workerCounts are the shapes every worker-count suite compares: inline on
// the driver (the default), three shards (sharded once µ > 3), and one
// goroutine per machine, under which -race sees every pair of co-active
// machines on separate goroutines.
func workerCounts(mu int) []int { return []int{1, 3, mu} }

// TestScheduledNilMachineSlots: scheduling an unattached slot must count
// it active without running a handler, at every worker count, and
// Quiescent/Run must see and then drain it.
func TestScheduledNilMachineSlots(t *testing.T) {
	for _, w := range workerCounts(4) {
		c := NewCluster(Config{Machines: 4, MemWords: 64, Workers: w})
		if !c.Quiescent() {
			t.Fatalf("workers=%d: fresh cluster not quiescent", w)
		}
		c.Schedule(2) // no machine attached to slot 2
		if c.Quiescent() {
			t.Fatalf("workers=%d: scheduled cluster reports quiescent", w)
		}
		rs := c.Round()
		if rs.Active != 1 || rs.Words != 0 || rs.Messages != 0 {
			t.Fatalf("workers=%d: nil-slot round stats %+v, want 1 active, 0 words", w, rs)
		}
		if !c.Quiescent() {
			t.Fatalf("workers=%d: cluster not quiescent after nil-slot round", w)
		}
		c.Schedule(0)
		c.Schedule(3)
		if n := c.Run(10); n != 1 {
			t.Fatalf("workers=%d: Run over nil slots took %d rounds, want 1", w, n)
		}
		c.Close()
	}
}

// TestSendBoundsCheck: an externally injected message to an out-of-range
// machine is a counted model violation (fatal in strict mode), not a raw
// index panic, and the message is dropped.
func TestSendBoundsCheck(t *testing.T) {
	for _, w := range workerCounts(3) {
		c := NewCluster(Config{Machines: 3, MemWords: 64, Workers: w})
		c.Send(Message{To: 99, Payload: 1, Words: 1})
		c.Send(Message{To: -1, Payload: 1, Words: 1})
		if v := c.Stats().Violations; v != 2 {
			t.Fatalf("workers=%d: %d violations after two out-of-range sends, want 2", w, v)
		}
		if !c.Quiescent() {
			t.Fatalf("workers=%d: dropped out-of-range sends left the cluster non-quiescent", w)
		}
		c.Close()

		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: strict mode did not panic on out-of-range Send", w)
				}
			}()
			sc := NewCluster(Config{Machines: 3, MemWords: 64, Strict: true, Workers: w})
			defer sc.Close()
			sc.Send(Message{To: 42, Payload: 1, Words: 1})
		}()
	}
}

// TestExternalWordsCounted: externally injected words must show up in
// the pair-communication distribution CommEntropy reports on — before
// this accounting, a workload driven purely by external injection scored
// a misleading entropy of 0.
func TestExternalWordsCounted(t *testing.T) {
	c := NewCluster(Config{Machines: 4, MemWords: 64})
	defer c.Close()
	c.Send(Message{From: -1, To: 0, Payload: 1, Words: 3})
	c.Send(Message{From: -1, To: 1, Payload: 1, Words: 3})
	if h := c.CommEntropy(); h != 1 {
		t.Fatalf("entropy %v after two equal external pair volumes, want exactly 1 bit", h)
	}
}

// TestCloseIsIdempotentAndFinal: Close returns only once every worker has
// exited — the goroutine count is back at its pre-NewCluster value the
// moment it does, with no grace period — closing twice is fine, and
// rounding a closed cluster is a driver bug and panics. It runs on one P,
// as bench/ does: there the closer cannot be scheduled before the last
// worker is gone, so the count is exact, whereas with more Ps the runtime
// retires a goroutine a few instructions after its last statement, a
// window no user code can wait out. (A Close that does not wait leaves all
// three workers unrun here and fails every time.)
func TestCloseIsIdempotentAndFinal(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := runtime.NumGoroutine()
	c := newPingCluster(8, 4)
	if n := c.exec.nshards; n != 4 {
		t.Fatalf("%d shards, want 4 (three worker goroutines; shard 0 is the driver's)", n)
	}
	c.Run(10)
	c.Close()
	// > rather than !=: an earlier test's goroutine may still have been
	// winding down when before was read.
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines when Close returned, %d before NewCluster", n, before)
	}
	c.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Round on a closed cluster did not panic")
		}
	}()
	c.Round()
}

// bomb panics in the round it is handed a message, after the other
// machines of its round have started; every other round it relays to its
// successor like a pingMachine.
type bomb struct {
	pingMachine
	armed bool
}

func (b *bomb) HandleRound(ctx *Ctx, inbox []Message) {
	if b.armed && len(inbox) > 0 {
		panic(fmt.Errorf("bomb %d", b.id))
	}
	b.pingMachine.HandleRound(ctx, inbox)
}

// TestHandlerPanicReachesCaller: a handler panic reaches the caller of
// Round on the driver at every worker count — not a crash on a worker
// goroutine, not an unwind that leaves the barrier undrained — carrying
// the lowest panicking machine's id and the original value; the cluster
// is closed from then on, so Close returns at once, no worker outlives
// it, and another Round panics instead of running on stale tokens. Like
// TestCloseIsIdempotentAndFinal it counts goroutines on one P.
func TestHandlerPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const mu = 8
	for _, w := range workerCounts(mu) {
		before := runtime.NumGoroutine()
		c := NewCluster(Config{Machines: mu, MemWords: 1 << 16, Workers: w})
		for i := 0; i < mu; i++ {
			c.SetMachine(i, &bomb{pingMachine: pingMachine{id: i, mu: mu}, armed: i == 2 || i == 6})
			c.Schedule(i)
		}
		c.Round() // every machine relays once: bombs 2 and 6 receive in round 1
		got := func() (r any) {
			defer func() { r = recover() }()
			c.Round()
			return nil
		}()
		msg, ok := got.(string)
		if want := "mpc: machine 2 panicked in round 1: bomb 2"; !ok || msg != want {
			t.Fatalf("workers=%d: Round panicked with %#v, want %q", w, got, want)
		}
		c.Close()
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("workers=%d: %d goroutines after Close, %d before NewCluster", w, n, before)
		}
		again := func() (r any) {
			defer func() { r = recover() }()
			c.Round()
			return nil
		}()
		if s, _ := again.(string); !strings.Contains(s, "closed cluster") {
			t.Fatalf("workers=%d: Round after a handler panic: %v, want the closed-cluster panic", w, again)
		}
	}
}

// pingMachine keeps a fixed-width round-robin cascade alive: every round
// each machine forwards one word to its successor and re-schedules
// itself, so every machine is active every round — the steady-state hot
// loop the allocs/round test and the round benchmark measure.
type pingMachine struct {
	id, mu int
}

func (p *pingMachine) HandleRound(ctx *Ctx, inbox []Message) {
	ctx.Send((p.id+1)%p.mu, int64(ctx.Round()), 1)
}

func newPingCluster(mu, workers int) *Cluster {
	c := NewCluster(Config{Machines: mu, MemWords: 1 << 16, Workers: workers})
	for i := 0; i < mu; i++ {
		c.SetMachine(i, &pingMachine{id: i, mu: mu})
	}
	for i := 0; i < mu; i++ {
		c.Schedule(i)
	}
	return c
}

// BenchmarkRound measures wall-clock time and allocations per round of
// the steady-state cascade, every machine active, at two cluster widths,
// inline and over four shards. Run with -benchmem.
func BenchmarkRound(b *testing.B) {
	for _, mu := range []int{16, 128} {
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("mu=%d/workers=%d", mu, w), func(b *testing.B) {
				c := newPingCluster(mu, w)
				defer c.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Round()
				}
			})
		}
	}
}
