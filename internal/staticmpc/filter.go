package staticmpc

import (
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// Filtering spanning forest / minimum spanning forest (Lattanzi et al.
// [26], the static baseline the paper cites for CC and MST). Edges are
// spread over the machines; every round each live machine computes the MSF
// of its local edge set (local computation is free in the MPC model),
// discards the rest, and ships the survivors to a machine of the next,
// halved group. After O(log(m/n)) rounds one machine holds a forest of the
// whole graph. As the paper notes, this baseline needs per-machine memory
// Ω(n); the bench configures it accordingly and the memory gap versus the
// dynamic algorithms is part of the reproduced contrast.

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

// SpanningForest computes an unweighted spanning forest by filtering.
func SpanningForest(g *graph.Graph, mu int) ([]graph.Edge, mpc.HalfStats) {
	wedges, res := MinSpanningForest(g, mu)
	out := make([]graph.Edge, len(wedges))
	for i, e := range wedges {
		out[i] = graph.Edge{U: e.U, V: e.V}
	}
	return out, res
}

// ApproxMinSpanningForest computes a (1+eps)-approximate MSF by rounding
// weights into (1+eps) buckets before filtering — §5.1's preprocessing
// recipe ("it is enough to bucket the edges by weights and compute
// connected components by considering the edges in buckets of increasing
// weights"). The returned edges carry their original weights.
func ApproxMinSpanningForest(g *graph.Graph, eps float64, mu int) ([]graph.WEdge, mpc.HalfStats) {
	rounded := graph.New(g.N())
	for _, e := range g.Edges() {
		rounded.Insert(e.U, e.V, graph.BucketWeight(e.W, eps))
	}
	forest, res := MinSpanningForest(rounded, mu)
	out := make([]graph.WEdge, len(forest))
	for i, e := range forest {
		w, _ := g.WeightOf(e.U, e.V)
		out[i] = graph.WEdge{U: e.U, V: e.V, W: w}
	}
	return out, res
}
