// Package staticmpc implements the one static MPC algorithm the paper's
// dynamic structures lean on: minimum spanning forest by filtering
// (Lattanzi et al. [26]), the recompute-from-scratch baseline dmpcbench's
// static table measures.
//
// Edges are spread over the machines; every round each live machine
// computes the MSF of its local edge set (local computation is free in the
// MPC model), discards the rest, and ships the survivors to a machine of
// the next, halved group. After O(log(m/n)) rounds one machine holds a
// forest of the whole graph. As the paper notes, this needs per-machine
// memory Ω(n); MinSpanningForest sizes S accordingly, and the memory gap
// versus the dynamic algorithms is part of the reproduced contrast.
//
// The run is accounted in rounds, active machines and words exactly like
// the dynamic algorithms: one recomputation stands where a dynamic
// algorithm has one update, so it is billed as a wave-free window of one
// update and returns that window's update half.
package staticmpc

import (
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

type filterMsg struct {
	edges []graph.WEdge
}

type filterMachine struct {
	n      int
	edges  []graph.WEdge
	live   bool
	target int // machine to ship survivors to; -1 = keep (final machine)
}

func (m *filterMachine) MemWords() int { return 3 * len(m.edges) }

func (m *filterMachine) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	for _, msg := range inbox {
		if fm, ok := msg.Payload.(filterMsg); ok {
			m.edges = append(m.edges, fm.edges...)
		}
	}
	if !m.live {
		return
	}
	m.live = false
	m.edges = localMSF(m.n, m.edges)
	if m.target >= 0 {
		ctx.Send(m.target, filterMsg{edges: m.edges}, 3*len(m.edges)+1)
		m.edges = nil
	}
}

// localMSF runs Kruskal on an arbitrary edge multiset.
func localMSF(n int, edges []graph.WEdge) []graph.WEdge {
	g := graph.New(n)
	for _, e := range edges {
		if cur, ok := g.WeightOf(e.U, e.V); !ok || e.W < cur {
			g.Delete(e.U, e.V)
			g.Insert(e.U, e.V, e.W)
		}
	}
	return graph.MSFEdges(g)
}

// MinSpanningForest computes an MSF of g by filtering, returning the forest
// edges and the accounting. mu 0 sizes the cluster automatically.
func MinSpanningForest(g *graph.Graph, mu int) ([]graph.WEdge, mpc.HalfStats) {
	n := g.N()
	edges := g.Edges()
	if mu <= 0 {
		mu = (len(edges)+n)/max(n, 1) + 2
	}
	if mu < 2 {
		mu = 2
	}
	// Per-machine memory must hold a forest plus its input share.
	mem := 3*(len(edges)/mu+1) + 6*n + 16
	cl := mpc.NewCluster(mpc.Config{Machines: mu, MemWords: mem})
	machines := make([]*filterMachine, mu)
	for i := range machines {
		machines[i] = &filterMachine{n: n}
		cl.SetMachine(i, machines[i])
	}
	for i, e := range edges {
		m := machines[i%mu]
		m.edges = append(m.edges, e)
	}

	cl.BeginMixed(1, 0)
	for live := mu; live > 1; live = (live + 1) / 2 {
		half := (live + 1) / 2
		for i := 0; i < live; i++ {
			machines[i].live = true
			if i >= half {
				machines[i].target = i - half
			} else {
				machines[i].target = -1
			}
			cl.Schedule(i)
		}
		cl.Round() // filter + ship
		cl.Round() // absorb
	}
	machines[0].live = true
	machines[0].target = -1
	cl.Schedule(0)
	cl.Round() // final local MSF
	stats := cl.EndMixed().Updates

	return machines[0].edges, stats
}
