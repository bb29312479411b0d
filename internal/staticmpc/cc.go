package staticmpc

import (
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// Connected components by min-label propagation with pointer doubling.
// Every iteration costs two cluster rounds: machines announce the labels of
// their vertices to neighbor owners and issue doubling queries to the
// owners of current labels; the next round absorbs announcements and
// answers queries. Labels converge to the component minimum in O(log n)
// iterations on paths (doubling) and O(diameter) at worst without it.

type ccMsg struct {
	kind int32 // 0 announce, 1 query, 2 answer
	a, b int32 // announce: (vertex, label); query: (target, asker); answer: (asker, label)
}

type ccMachine struct {
	layout  Layout
	verts   []int32           // owned vertices
	adj     map[int32][]int32 // owned vertex -> neighbors
	label   map[int32]int32   // owned vertex -> current label
	changed bool
	active  bool // participate in announce phase this tick
}

func (m *ccMachine) MemWords() int {
	w := 2 * len(m.label)
	for _, nb := range m.adj {
		w += len(nb)
	}
	return w
}

func (m *ccMachine) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	// Absorb incoming messages first.
	for _, msg := range inbox {
		cm, ok := msg.Payload.(ccMsg)
		if !ok {
			continue
		}
		switch cm.kind {
		case 0, 2: // announce or doubling answer: candidate label for cm.a
			if cur, mine := m.label[cm.a]; mine && cm.b < cur {
				m.label[cm.a] = cm.b
				m.changed = true
			}
		case 1: // query: reply with label of cm.a to the asker's owner
			asker := cm.b
			ctx.Send(m.layout.Owner(int(asker)),
				ccMsg{kind: 2, a: asker, b: m.label[cm.a]}, 3)
		}
	}
	if !m.active {
		return
	}
	m.active = false
	// Announce phase: labels to neighbor owners, doubling queries to label
	// owners.
	for _, v := range m.verts {
		lv := m.label[v]
		for _, w := range m.adj[v] {
			ctx.Send(m.layout.Owner(int(w)), ccMsg{kind: 0, a: w, b: lv}, 3)
		}
		if lv != v {
			ctx.Send(m.layout.Owner(int(lv)), ccMsg{kind: 1, a: lv, b: v}, 3)
		}
	}
}

// ConnectedComponents runs the static CC baseline on g over a cluster with
// mu machines and memWords memory per machine (pass 0,0 for automatic
// sizing). It returns the component labeling and the run's accounting.
func ConnectedComponents(g *graph.Graph, mu, memWords int) ([]int, mpc.HalfStats) {
	n := g.N()
	cfg := mpc.Auto(n+2*g.M(), 4)
	if mu > 0 {
		cfg.Machines = mu
	}
	if memWords > 0 {
		cfg.MemWords = memWords
	}
	cl := mpc.NewCluster(cfg)
	layout := Layout{N: n, Mu: cfg.Machines}
	machines := make([]*ccMachine, cfg.Machines)
	for i := range machines {
		machines[i] = &ccMachine{
			layout: layout,
			adj:    make(map[int32][]int32),
			label:  make(map[int32]int32),
		}
		cl.SetMachine(i, machines[i])
	}
	for v := 0; v < n; v++ {
		mach := machines[layout.Owner(v)]
		mach.verts = append(mach.verts, int32(v))
		mach.label[int32(v)] = int32(v)
		for _, w := range g.Neighbors(v) {
			mach.adj[int32(v)] = append(mach.adj[int32(v)], int32(w))
		}
	}

	cl.BeginMixed(1, 0)
	for iter := 0; iter < 4*bitsFor(n)+8; iter++ {
		for i := range machines {
			machines[i].changed = false
			machines[i].active = true
			cl.Schedule(i)
		}
		cl.Round() // announce + query
		cl.Round() // absorb + answer
		cl.Round() // absorb answers
		anyChanged := false
		for i := range machines {
			if machines[i].changed {
				anyChanged = true
			}
		}
		if !anyChanged {
			break
		}
	}
	stats := cl.EndMixed().Updates

	labels := make([]int, n)
	for _, m := range machines {
		for v, l := range m.label {
			labels[v] = int(l)
		}
	}
	return labels, stats
}

func bitsFor(n int) int {
	b := 1
	for 1<<b < n {
		b++
	}
	return b
}
