// Package reduction implements §7 of the paper: the black-box simulation
// of a centralized dynamic algorithm in the DMPC model. The sequential
// algorithm's memory is sharded over bank machines 1..banks. Machine 0 is
// the paper's M_MRA: the algorithm's local work happens "on" it, which the
// model does not charge, so it runs no handler here.
//
// Wrapped runs each update of a seqdyn structure sequentially and counts
// its elementary operations. Each counted operation is then replayed as
// one write from machine 0 to a bank, with an address derived from the
// operation index: one round, one active machine and 3 words. An update
// with sequential time u(N) therefore costs u(N) rounds on O(1) machines
// (Lemma 7.1). A read would cost one more round for its reply, so these
// counts are a lower bound on the simulation's cost, within 2×. The
// address distribution is synthetic (DESIGN.md). The amortized/worst-case
// and deterministic/randomized character of the plugged algorithm carries
// over unchanged.
package reduction

import (
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/seqdyn"
)

// bank holds a shard of the address space.
type bank struct {
	words map[int]int64
}

func (b *bank) MemWords() int { return 2 * len(b.words) }

// memMsg writes val at addr.
type memMsg struct {
	addr int
	val  int64
}

func (b *bank) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	for _, raw := range inbox {
		m := raw.Payload.(memMsg)
		b.words[m.addr] = m.val
	}
}

// Sim is a DMPC cluster configured as the §7 simulation substrate.
type Sim struct {
	cluster *mpc.Cluster
	banks   int
}

// NewSim builds a simulation cluster: machine 0 plus banks memory
// machines, each with memWords capacity (0 = 4096).
func NewSim(banks, memWords int) *Sim {
	if banks < 1 {
		banks = 1
	}
	if memWords <= 0 {
		memWords = 4096
	}
	cl := mpc.NewCluster(mpc.Config{Machines: banks + 1, MemWords: memWords})
	for i := 1; i <= banks; i++ {
		cl.SetMachine(i, &bank{words: make(map[int]int64)})
	}
	return &Sim{cluster: cl, banks: banks}
}

// Cluster exposes the accounting.
func (s *Sim) Cluster() *mpc.Cluster { return s.cluster }

func (s *Sim) bankOf(addr int) int { return 1 + addr%s.banks }

// Write routes one word write through the cluster: one round, one active
// machine, 3 words.
func (s *Sim) Write(addr int, val int64) {
	s.cluster.Send(mpc.Message{From: 0, To: s.bankOf(addr), Payload: memMsg{addr: addr, val: val}, Words: 3})
	s.cluster.Round()
}

// ReplayOps simulates k counted elementary operations as k writes with
// addresses derived from the operation index.
func (s *Sim) ReplayOps(k int64, salt int64) {
	for i := int64(0); i < k; i++ {
		addr := int((i*2654435761 + salt) & 0xffff)
		s.Write(addr, i)
	}
}

// Target is a sequential dynamic algorithm wrapped for the reduction.
type Target interface {
	Apply(up graph.Update)
	OpCounter() *seqdyn.Counter
}

// Wrapped couples a Target with a Sim; each Update runs the sequential
// algorithm and replays its operation count through the cluster.
type Wrapped struct {
	Sim    *Sim
	Target Target
	salt   int64
}

// NewWrapped builds the standard wrapper.
func NewWrapped(sim *Sim, t Target) *Wrapped { return &Wrapped{Sim: sim, Target: t} }

// Update performs one dynamic update under §7 accounting, billed as a
// wave-free window of one update, and returns that window's update half:
// Rounds = the update's counted sequential operations.
func (w *Wrapped) Update(up graph.Update) mpc.HalfStats {
	w.Sim.cluster.BeginMixed(1, 0)
	before := w.Target.OpCounter().Count()
	w.Target.Apply(up)
	ops := w.Target.OpCounter().Count() - before
	w.salt++
	w.Sim.ReplayOps(ops, w.salt)
	return w.Sim.cluster.EndMixed().Updates
}

// --- ready-made targets ---------------------------------------------------

// HDTTarget plugs Holm–de Lichtenberg–Thorup connectivity (the paper's
// Table 1 "Connected comps, Õ(1) amortized" row).
type HDTTarget struct{ H *seqdyn.HDT }

// Apply implements Target.
func (t HDTTarget) Apply(up graph.Update) {
	if up.Op == graph.Insert {
		t.H.Insert(up.U, up.V)
	} else {
		t.H.Delete(up.U, up.V)
	}
}

// OpCounter implements Target.
func (t HDTTarget) OpCounter() *seqdyn.Counter { return &t.H.Ops }

// NSMatchTarget plugs the Neiman–Solomon-style maximal matching (the
// "Maximal matching, O(1) amortized" row; we substitute the deterministic
// O(√m) worst-case algorithm, see DESIGN.md).
type NSMatchTarget struct{ M *seqdyn.NSMatch }

// Apply implements Target.
func (t NSMatchTarget) Apply(up graph.Update) {
	if up.Op == graph.Insert {
		t.M.Insert(up.U, up.V)
	} else {
		t.M.Delete(up.U, up.V)
	}
}

// OpCounter implements Target.
func (t NSMatchTarget) OpCounter() *seqdyn.Counter { return &t.M.Ops }

// MSFTarget plugs the dynamic minimum spanning forest (the "MST, Õ(1)
// amortized" row).
type MSFTarget struct{ F *seqdyn.DynMSF }

// Apply implements Target.
func (t MSFTarget) Apply(up graph.Update) {
	if up.Op == graph.Insert {
		t.F.Insert(up.U, up.V, up.W)
	} else {
		t.F.Delete(up.U, up.V)
	}
}

// OpCounter implements Target.
func (t MSFTarget) OpCounter() *seqdyn.Counter { return &t.F.Ops }
