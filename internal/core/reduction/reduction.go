// Package reduction implements §7 of the paper: the black-box simulation
// of a centralized dynamic algorithm in the DMPC model. The sequential
// algorithm's memory is sharded over the cluster's machines; machine 0
// (the compute machine, the paper's M_MRA) performs the algorithm's local
// work, and every elementary memory operation becomes one request/response
// exchange — O(1) rounds, O(1) active machines and O(1) communicated words
// per operation, so an update with sequential time u(N) runs in O(u(N))
// rounds (Lemma 7.1). The amortized/worst-case and deterministic/
// randomized character of the plugged algorithm carries over unchanged.
//
// Two plug-in styles are provided:
//
//   - StoreUnionFind is written directly against the sharded Store, so its
//     address traffic is the real pointer-chasing of union-find; and
//   - Wrap adapts any seqdyn structure via its operation counter: the
//     update executes on the compute machine and the counted elementary
//     operations are replayed as memory exchanges with addresses derived
//     from the operation index. The round/machine/word accounting is
//     exact; only the address distribution is synthetic (recorded in
//     DESIGN.md).
package reduction

import (
	"fmt"

	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/seqdyn"
)

// Store is word-addressed memory; addresses are sharded over bank
// machines.
type Store interface {
	Read(addr int) int64
	Write(addr int, val int64)
}

// bank holds a shard of the address space.
type bank struct {
	words map[int]int64
}

func (b *bank) MemWords() int { return 2 * len(b.words) }

type memMsg struct {
	write bool
	addr  int
	val   int64
	reply bool
}

func (b *bank) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	for _, raw := range inbox {
		m, ok := raw.Payload.(memMsg)
		if !ok || m.reply {
			continue
		}
		if m.write {
			b.words[m.addr] = m.val
			continue
		}
		ctx.Send(0, memMsg{reply: true, addr: m.addr, val: b.words[m.addr]}, 3)
	}
}

// compute is machine 0; it only relays the driver's memory traffic (the
// sequential algorithm's local work happens "on" it, which the MPC model
// does not charge).
type compute struct {
	lastVal int64
	got     bool
}

func (c *compute) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	for _, raw := range inbox {
		if m, ok := raw.Payload.(memMsg); ok && m.reply {
			c.lastVal, c.got = m.val, true
		}
	}
}

// Sim is a DMPC cluster configured as the §7 simulation substrate.
type Sim struct {
	cluster *mpc.Cluster
	comp    *compute
	banks   int
}

// NewSim builds a simulation cluster: one compute machine plus banks
// memory machines, each with memWords capacity (0 = 4096).
func NewSim(banks, memWords int) *Sim {
	if banks < 1 {
		banks = 1
	}
	if memWords <= 0 {
		memWords = 4096
	}
	cl := mpc.NewCluster(mpc.Config{Machines: banks + 1, MemWords: memWords})
	s := &Sim{cluster: cl, comp: &compute{}, banks: banks}
	cl.SetMachine(0, s.comp)
	for i := 1; i <= banks; i++ {
		cl.SetMachine(i, &bank{words: make(map[int]int64)})
	}
	return s
}

// Cluster exposes the accounting.
func (s *Sim) Cluster() *mpc.Cluster { return s.cluster }

func (s *Sim) bankOf(addr int) int { return 1 + addr%s.banks }

// Read routes one word read through the cluster: request round + reply
// round, two active machines, O(1) words.
func (s *Sim) Read(addr int) int64 {
	s.comp.got = false
	s.cluster.Send(mpc.Message{From: 0, To: s.bankOf(addr), Payload: memMsg{addr: addr}, Words: 2})
	s.cluster.Round()
	s.cluster.Round()
	if !s.comp.got {
		panic(fmt.Sprintf("reduction: read of %d got no reply", addr))
	}
	return s.comp.lastVal
}

// Write routes one word write through the cluster (one round).
func (s *Sim) Write(addr int, val int64) {
	s.cluster.Send(mpc.Message{From: 0, To: s.bankOf(addr), Payload: memMsg{write: true, addr: addr, val: val}, Words: 3})
	s.cluster.Round()
}

// ReplayOps simulates k counted elementary operations as read exchanges
// with addresses derived from the operation index.
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
// Rounds = Θ(sequential operations).
func (w *Wrapped) Update(up graph.Update) mpc.HalfStats {
	w.Sim.cluster.BeginMixed(1, 0, nil)
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

// --- union-find over the real store ---------------------------------------

// StoreUnionFind is incremental connectivity written directly against the
// sharded Store: its DMPC round pattern is the genuine address trace of
// union-find with path halving, not a replay.
type StoreUnionFind struct {
	sim *Sim
}

// NewStoreUnionFind initializes parent[i] = i in distributed memory.
func NewStoreUnionFind(sim *Sim, n int) *StoreUnionFind {
	u := &StoreUnionFind{sim: sim}
	for i := 0; i < n; i++ {
		sim.Write(i, int64(i))
	}
	return u
}

func (u *StoreUnionFind) find(x int) int {
	for {
		p := u.sim.Read(x)
		if int(p) == x {
			return x
		}
		gp := u.sim.Read(int(p))
		if gp != p {
			u.sim.Write(x, gp) // path halving
		}
		x = int(gp)
	}
}

// Union merges the sets containing a and b.
func (u *StoreUnionFind) Union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if ra < rb {
		u.sim.Write(rb, int64(ra))
	} else {
		u.sim.Write(ra, int64(rb))
	}
}

// Connected answers a connectivity query through distributed memory.
func (u *StoreUnionFind) Connected(a, b int) bool { return u.find(a) == u.find(b) }
