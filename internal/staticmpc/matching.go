package staticmpc

import (
	"math/rand"

	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// Randomized maximal matching by coin-flip proposals, in the spirit of
// Israeli–Itai [23] (the paper's suggested initializer for §3). Each
// iteration: every free vertex flips a coin; heads propose to a uniformly
// random free neighbor, tails accept their smallest proposer. An accept is
// a binding match for both sides — a tail accepts at most one proposer and
// a head can be accepted only by its single proposal target, so the
// matching stays consistent. Iterations are O(log n) w.h.p.; each costs a
// constant number of cluster rounds.

type mmKind int32

const (
	mmPropose mmKind = iota
	mmAccept
	mmMatched // a vertex announces to neighbors that it is matched
)

type mmMsg struct {
	kind mmKind
	a, b int32 // propose: (to, from); accept: (to, accepter); matched: (to, matchedVertex)
}

type mmMachine struct {
	layout   Layout
	verts    []int32
	adj      map[int32][]int32
	freeNbrs map[int32]map[int32]bool
	mate     map[int32]int32
	heads    map[int32]bool  // coin of the current iteration
	incoming map[int32]int32 // smallest proposer seen this iteration
	rng      *rand.Rand
	phase    int32
}

func (m *mmMachine) MemWords() int {
	w := 4 * len(m.verts)
	for _, s := range m.freeNbrs {
		w += len(s)
	}
	return w
}

func (m *mmMachine) announceMatched(ctx *mpc.Ctx, v int32) {
	for _, w := range m.adj[v] {
		ctx.Send(m.layout.Owner(int(w)), mmMsg{kind: mmMatched, a: w, b: v}, 3)
	}
}

func (m *mmMachine) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	for _, msg := range inbox {
		mm, ok := msg.Payload.(mmMsg)
		if !ok {
			continue
		}
		switch mm.kind {
		case mmPropose:
			to, from := mm.a, mm.b
			if m.mate[to] != -1 || m.heads[to] {
				continue // heads ignore proposals this iteration
			}
			if cur, ok := m.incoming[to]; !ok || from < cur {
				m.incoming[to] = from
			}
		case mmAccept:
			// to = the proposer (heads); the accept is binding.
			to, accepter := mm.a, mm.b
			m.mate[to] = accepter
			m.announceMatched(ctx, to)
		case mmMatched:
			v, other := mm.a, mm.b
			if s, ok := m.freeNbrs[v]; ok {
				delete(s, other)
			}
		}
	}

	switch m.phase {
	case 0: // flip coins, heads propose
		for _, v := range m.verts {
			delete(m.incoming, v)
			if m.mate[v] != -1 {
				continue
			}
			m.heads[v] = m.rng.Intn(2) == 0
			if !m.heads[v] {
				continue
			}
			cands := m.freeNbrs[v]
			if len(cands) == 0 {
				continue
			}
			// The pick-th free neighbor in adjacency (ascending) order: the
			// run is then a function of the seed, not of map iteration.
			pick := m.rng.Intn(len(cands))
			for _, w := range m.adj[v] {
				if !cands[w] {
					continue
				}
				if pick == 0 {
					ctx.Send(m.layout.Owner(int(w)), mmMsg{kind: mmPropose, a: w, b: v}, 3)
					break
				}
				pick--
			}
		}
	case 1: // tails accept their smallest proposer
		for _, v := range m.verts {
			if m.mate[v] != -1 || m.heads[v] {
				continue
			}
			if from, ok := m.incoming[v]; ok {
				m.mate[v] = from
				m.announceMatched(ctx, v)
				ctx.Send(m.layout.Owner(int(from)), mmMsg{kind: mmAccept, a: from, b: v}, 3)
			}
		}
	}
	m.phase = -1
}

// MaximalMatching computes a maximal matching of g on a cluster, returning
// the mate table and the accounting. seed fixes the proposal randomness.
func MaximalMatching(g *graph.Graph, mu, memWords int, seed int64) ([]int, mpc.HalfStats) {
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
	machines := make([]*mmMachine, cfg.Machines)
	for i := range machines {
		machines[i] = &mmMachine{
			layout:   layout,
			adj:      make(map[int32][]int32),
			freeNbrs: make(map[int32]map[int32]bool),
			mate:     make(map[int32]int32),
			heads:    make(map[int32]bool),
			incoming: make(map[int32]int32),
			rng:      rand.New(rand.NewSource(seed + int64(i))),
			phase:    -1,
		}
		cl.SetMachine(i, machines[i])
	}
	for v := 0; v < n; v++ {
		mach := machines[layout.Owner(v)]
		v32 := int32(v)
		mach.verts = append(mach.verts, v32)
		mach.mate[v32] = -1
		mach.freeNbrs[v32] = make(map[int32]bool)
		for _, w := range g.Neighbors(v) {
			mach.adj[v32] = append(mach.adj[v32], int32(w))
			mach.freeNbrs[v32][int32(w)] = true
		}
	}

	cl.BeginMixed(1, 0, nil)
	for iter := 0; iter < 16*bitsFor(n)+32; iter++ {
		for i := range machines {
			machines[i].phase = 0
			cl.Schedule(i)
		}
		cl.Round() // proposals sent
		for i := range machines {
			machines[i].phase = 1
			cl.Schedule(i)
		}
		cl.Round() // accepts + matched announcements
		cl.Round() // binding accepts processed at proposers
		cl.Round() // absorb remaining matched announcements
		done := true
		for _, m := range machines {
			for _, v := range m.verts {
				if m.mate[v] == -1 && len(m.freeNbrs[v]) > 0 {
					done = false
					break
				}
			}
			if !done {
				break
			}
		}
		if done {
			break
		}
	}
	stats := cl.EndMixed().Updates

	mate := make([]int, n)
	for _, m := range machines {
		for _, v := range m.verts {
			mate[v] = int(m.mate[v])
		}
	}
	return mate, stats
}
