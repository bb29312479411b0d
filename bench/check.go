package main

import (
	"fmt"

	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/seqdyn"
)

// checker verifies one workload's outputs against a sequential oracle.
// The oracle side is computed once per run, outside every clock; each
// rep's answers and end state are then compared with it.
type checker interface {
	// answers returns how many of a rep's query answers are wrong.
	answers(res graph.Results) int
	// state validates a rep's end state by driver-side oracle access.
	state(inst instance) error
}

// replayGraph applies a stream's updates to g.
func replayGraph(g *graph.Graph, ops []graph.Op) {
	for _, op := range ops {
		if !op.IsQuery() {
			g.Apply(op.Update())
		}
	}
}

// connectivityChecker: every QConnected answer against a seqdyn.HDT
// replay, and the final labelling against graph.Components.
type connectivityChecker struct {
	want   []bool
	labels []int
}

func newConnectivityChecker(_ *workload, in input) checker {
	c := &connectivityChecker{}
	h := seqdyn.NewHDT(in.n)
	g := graph.New(in.n)
	for _, ops := range [][]graph.Op{in.preload, in.ops} {
		for _, op := range ops {
			switch op.Kind {
			case graph.OpInsert:
				h.Insert(op.U, op.V)
			case graph.OpDelete:
				h.Delete(op.U, op.V)
			case graph.OpConnected:
				c.want = append(c.want, h.Connected(op.U, op.V))
			}
		}
		replayGraph(g, ops)
	}
	c.labels = graph.Components(g)
	return c
}

func (c *connectivityChecker) answers(res graph.Results) int {
	wrong := 0
	for i, want := range c.want {
		if i >= len(res) || res[i].Bool != want {
			wrong++
		}
	}
	return wrong
}

func (c *connectivityChecker) state(inst instance) error {
	got := make([]int, len(c.labels))
	for v := range got {
		got[v] = int(inst.compOf(v))
	}
	if !graph.SameLabeling(got, c.labels) {
		return fmt.Errorf("final CompOf labelling differs from graph.Components")
	}
	return nil
}

// maximalChecker: QMateOf answers on the first 10 % of the stream
// against a k=1 replica on the sim backend — §3 promises answers
// bit-identical to sequential replay — and MateTable maximal on the
// replayed graph.
type maximalChecker struct {
	want  graph.Results
	final *graph.Graph
}

func newMaximalChecker(w *workload, in input) checker {
	c := &maximalChecker{final: graph.New(in.n)}
	replayGraph(c.final, in.ops)
	replica := w.direct(in, mpc.BackendSim)
	defer replica.close()
	for _, op := range in.ops[:len(in.ops)/10] {
		res, _ := replica.apply([]graph.Op{op})
		c.want = append(c.want, res...)
	}
	return c
}

func (c *maximalChecker) answers(res graph.Results) int {
	wrong := 0
	for i, want := range c.want {
		if i >= len(res) || res[i].Int != want.Int {
			wrong++
		}
	}
	return wrong
}

func (c *maximalChecker) state(inst instance) error {
	if !graph.IsMaximalMatching(c.final, inst.mates()) {
		return fmt.Errorf("MateTable is not a maximal matching of the replayed graph")
	}
	return nil
}

// almostMaximalChecker: §6 is randomized, so there is no replica to
// compare answers with. A read observes the matching at its stream
// position, so every QMateOf answer must be free or a neighbour in the
// graph replayed up to that op; the end state must be a matching within
// the §6 free-free-edge bound.
type almostMaximalChecker struct {
	ops   []graph.Op
	n     int
	final *graph.Graph
}

func newAlmostMaximalChecker(_ *workload, in input) checker {
	c := &almostMaximalChecker{ops: in.ops, n: in.n, final: graph.New(in.n)}
	replayGraph(c.final, in.ops)
	return c
}

func (c *almostMaximalChecker) answers(res graph.Results) int {
	g := graph.New(c.n)
	wrong, j := 0, 0
	for _, op := range c.ops {
		if !op.IsQuery() {
			g.Apply(op.Update())
			continue
		}
		// A refused query is already counted among the refusals.
		if j >= len(res) || (!res[j].Rejected && res[j].Int != -1 && !g.Has(op.U, int(res[j].Int))) {
			wrong++
		}
		j++
	}
	return wrong
}

func (c *almostMaximalChecker) state(inst instance) error {
	mates := inst.mates()
	if !graph.IsMatching(c.final, mates) {
		return fmt.Errorf("MateTable is not a matching of the replayed graph")
	}
	// The deficit bound amm's own tests assert: free-free edges are at
	// most a third of the matching (plus one).
	deficit, matched := graph.CountFreeFreeEdges(c.final, mates), graph.MatchingSize(mates)
	if deficit > matched/3+1 {
		return fmt.Errorf("%d free-free edges exceed the §6 bound for a matching of %d", deficit, matched)
	}
	return nil
}
