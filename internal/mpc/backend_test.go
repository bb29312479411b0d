package mpc

import (
	"runtime"
	"testing"
)

// relayFingerprint is the full observable state of one relay run — the
// answer trace plus every accounting figure the determinism rule pins,
// including the pair-communication distribution (CommEntropy and
// MaxPairWords).
type relayFingerprint struct {
	rounds, words, maxPair int
	entropy                float64
	trace                  []int64
}

// runRelayOn executes the branching relay of determinism_test.go on a
// specific backend and worker bound, returning the trace fingerprint.
func runRelayOn(be BackendKind, workers int) relayFingerprint {
	const mu = 7
	c := NewCluster(Config{Machines: mu, MemWords: 1 << 20, Workers: workers, Backend: be})
	defer c.Close()
	ms := make([]*relayMachine, mu)
	for i := range ms {
		ms[i] = &relayMachine{id: i, mu: mu, budget: 40}
		c.SetMachine(i, ms[i])
	}
	c.Send(Message{To: 0, Payload: int64(1), Words: 1})
	c.Run(500)
	fp := relayFingerprint{
		rounds:  c.Stats().Rounds,
		words:   c.Stats().Words,
		maxPair: c.MaxPairWords(),
		entropy: c.CommEntropy(),
	}
	for _, m := range ms {
		fp.trace = append(fp.trace, int64(len(m.seen)))
		for _, v := range m.seen {
			fp.trace = append(fp.trace, v)
		}
	}
	return fp
}

// TestParallelBackendMatchesSim: the goroutine-per-machine runtime must
// reproduce the sim oracle's trace, rounds and words bit for bit, at
// every worker sharding — one worker (fully inline on the driver),
// fewer workers than machines (sharded), and one goroutine per machine.
func TestParallelBackendMatchesSim(t *testing.T) {
	want := runRelayOn(BackendSim, 0)
	for _, workers := range []int{1, 2, 3, 7, 16} {
		got := runRelayOn(BackendParallel, workers)
		if got.rounds != want.rounds || got.words != want.words {
			t.Fatalf("parallel workers=%d: rounds/words %d/%d, sim %d/%d",
				workers, got.rounds, got.words, want.rounds, want.words)
		}
		if got.maxPair != want.maxPair || got.entropy != want.entropy {
			t.Fatalf("parallel workers=%d: pair accounting %d/%v, sim %d/%v",
				workers, got.maxPair, got.entropy, want.maxPair, want.entropy)
		}
		if len(got.trace) != len(want.trace) {
			t.Fatalf("parallel workers=%d: trace length %d, sim %d", workers, len(got.trace), len(want.trace))
		}
		for i := range want.trace {
			if got.trace[i] != want.trace[i] {
				t.Fatalf("parallel workers=%d: trace[%d] = %d, sim %d", workers, i, got.trace[i], want.trace[i])
			}
		}
	}
}

// TestWorkersDeterminismPerBackend: Workers=1 and Workers=GOMAXPROCS
// produce bit-identical stats on both backends — the Config.Workers
// guarantee.
func TestWorkersDeterminismPerBackend(t *testing.T) {
	for _, be := range []BackendKind{BackendSim, BackendParallel} {
		f1 := runRelayOn(be, 1)
		fn := runRelayOn(be, runtime.GOMAXPROCS(0))
		if f1.rounds != fn.rounds || f1.words != fn.words || len(f1.trace) != len(fn.trace) ||
			f1.maxPair != fn.maxPair || f1.entropy != fn.entropy {
			t.Fatalf("%v: workers=1 got %+v, GOMAXPROCS got %+v", be, f1, fn)
		}
		for i := range f1.trace {
			if f1.trace[i] != fn.trace[i] {
				t.Fatalf("%v: trace[%d] differs across worker counts: %d vs %d", be, i, f1.trace[i], fn.trace[i])
			}
		}
	}
}

// TestScheduledNilMachineSlots: scheduling an unattached slot must count
// it active without running a handler, on both backends, and
// Quiescent/Run must see and then drain it.
func TestScheduledNilMachineSlots(t *testing.T) {
	for _, be := range []BackendKind{BackendSim, BackendParallel} {
		c := NewCluster(Config{Machines: 4, MemWords: 64, Workers: 3, Backend: be})
		if !c.Quiescent() {
			t.Fatalf("%v: fresh cluster not quiescent", be)
		}
		c.Schedule(2) // no machine attached to slot 2
		if c.Quiescent() {
			t.Fatalf("%v: scheduled cluster reports quiescent", be)
		}
		rs := c.Round()
		if rs.Active != 1 || rs.Words != 0 || rs.Messages != 0 {
			t.Fatalf("%v: nil-slot round stats %+v, want 1 active, 0 words", be, rs)
		}
		if !c.Quiescent() {
			t.Fatalf("%v: cluster not quiescent after nil-slot round", be)
		}
		c.Schedule(0)
		c.Schedule(3)
		if n := c.Run(10); n != 1 {
			t.Fatalf("%v: Run over nil slots took %d rounds, want 1", be, n)
		}
		c.Close()
	}
}

// TestSendBoundsCheck: an externally injected message to an out-of-range
// machine is a counted model violation (fatal in strict mode), not a raw
// index panic, and the message is dropped.
func TestSendBoundsCheck(t *testing.T) {
	for _, be := range []BackendKind{BackendSim, BackendParallel} {
		c := NewCluster(Config{Machines: 3, MemWords: 64, Backend: be})
		c.Send(Message{To: 99, Payload: 1, Words: 1})
		c.Send(Message{To: -1, Payload: 1, Words: 1})
		if v := c.Stats().Violations; v != 2 {
			t.Fatalf("%v: %d violations after two out-of-range sends, want 2", be, v)
		}
		if !c.Quiescent() {
			t.Fatalf("%v: dropped out-of-range sends left the cluster non-quiescent", be)
		}
		c.Close()

		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%v: strict mode did not panic on out-of-range Send", be)
				}
			}()
			sc := NewCluster(Config{Machines: 3, MemWords: 64, Strict: true, Backend: be})
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
// rounding a closed parallel cluster is a driver bug and panics. It runs
// on one P, as bench/ does: there the closer cannot be scheduled before
// the last worker is gone, so the count is exact, whereas with more Ps the
// runtime retires a goroutine a few instructions after its last statement,
// a window no user code can wait out. (A Close that does not wait leaves
// all three workers unrun here and fails every time.)
func TestCloseIsIdempotentAndFinal(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := runtime.NumGoroutine()
	c := newPingCluster(8, BackendParallel, 4)
	if n := c.exec.(*parallelExec).nshards; n != 4 {
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
			t.Fatal("Round on a closed parallel cluster did not panic")
		}
	}()
	c.Round()
}

// pingMachine keeps a fixed-width round-robin cascade alive: every round
// each machine forwards one word to its successor and re-schedules
// itself, so every machine is active every round — the steady-state hot
// loop the allocs/round benchmark and the backend wall-clock comparison
// measure.
type pingMachine struct {
	id, mu int
}

func (p *pingMachine) HandleRound(ctx *Ctx, inbox []Message) {
	ctx.Send((p.id+1)%p.mu, int64(ctx.Round()), 1)
}

func newPingCluster(mu int, be BackendKind, workers int) *Cluster {
	c := NewCluster(Config{Machines: mu, MemWords: 1 << 16, Workers: workers, Backend: be})
	for i := 0; i < mu; i++ {
		c.SetMachine(i, &pingMachine{id: i, mu: mu})
	}
	for i := 0; i < mu; i++ {
		c.Schedule(i)
	}
	return c
}

// BenchmarkRoundAllocs measures the per-round allocation bill of the hot
// loop with every machine active — the satellite target for hoisting the
// sim backend's per-round scratch (semaphore, active set, context slice)
// into reused state. Run with -benchmem; the sim backend's bill is one
// Ctx per active machine plus inbox churn, the parallel backend's is
// inbox churn only.
func BenchmarkRoundAllocs(b *testing.B) {
	for _, bc := range []struct {
		name string
		be   BackendKind
	}{{"sim", BackendSim}, {"parallel", BackendParallel}} {
		b.Run(bc.name, func(b *testing.B) {
			c := newPingCluster(16, bc.be, 4)
			defer c.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Round()
			}
		})
	}
}

// BenchmarkBackends compares wall-clock time per round between the sim
// oracle and the parallel runtime on the steady-state cascade at two
// cluster widths.
func BenchmarkBackends(b *testing.B) {
	for _, mu := range []int{16, 128} {
		for _, bc := range []struct {
			name string
			be   BackendKind
		}{{"sim", BackendSim}, {"parallel", BackendParallel}} {
			b.Run(bc.name+"/mu="+itoa(mu), func(b *testing.B) {
				c := newPingCluster(mu, bc.be, 0)
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

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
