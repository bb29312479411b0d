package mpc

import (
	"fmt"
	"strings"
	"testing"

	"dmpc/internal/graph"
)

// answerer answers every read it is sent: the payload is the read's
// stream position, the answer ten times it.
var answerer = machineFunc(func(ctx *Ctx, inbox []Message) {
	for _, m := range inbox {
		at := m.Payload.(int)
		ctx.Answer(at, graph.Answer{Int: int64(10 * at)})
	}
})

// TestAnswersPositional pins the one answer path: machines output answers
// by stream position, in whatever order they run, and Answers returns them
// in stream order — on both backends — while a read left unanswered, a
// read answered twice and an answer naming no read each panic, naming the
// position.
func TestAnswersPositional(t *testing.T) {
	ops := []graph.Op{
		graph.OpQMateOf(0), graph.OpIns(0, 1, 1), graph.OpQMateOf(1),
		graph.OpQMatched(1, 2), graph.OpDel(0, 1), graph.OpQMateOf(3),
	}
	const mu = 4
	// run sends the reads at the positions in send, the k-th to machine
	// mu-1-k: settle merges a later read's answer first.
	run := func(be BackendKind, send ...int) (res graph.Results, panicked string) {
		c := NewCluster(Config{Machines: mu, MemWords: 64, Backend: be})
		defer c.Close()
		for i := 0; i < mu; i++ {
			c.SetMachine(i, answerer)
		}
		c.BeginMixed(2, 4, nil)
		for k, at := range send {
			c.Send(Message{From: -1, To: mu - 1 - k%mu, Payload: at, Words: 1})
		}
		c.Drain(4, "answerers")
		c.EndMixed()
		defer func() {
			if r := recover(); r != nil {
				panicked = fmt.Sprint(r)
			}
		}()
		return c.Answers(ops), ""
	}
	for _, be := range []BackendKind{BackendSim, BackendParallel} {
		res, p := run(be, 0, 2, 3, 5)
		want := graph.Results{{Int: 0}, {Int: 20}, {Int: 30}, {Int: 50}}
		if p != "" || fmt.Sprint(res) != fmt.Sprint(want) {
			t.Fatalf("%v: Answers = %v (panic %q), want %v", be, res, p, want)
		}
		for _, tc := range []struct {
			name string
			send []int
			want string
		}{
			{"missing", []int{0, 2, 5}, "read 3 (matched?(1,2)) produced no answer"},
			{"duplicate", []int{0, 2, 3, 5, 2}, "read 2 (mate-of?(1)) answered twice"},
			{"stray update", []int{0, 1, 2, 3, 5}, "stray answer for stream position 1"},
			{"stray past the window", []int{0, 2, 3, 5, 6}, "stray answer for stream position 6"},
		} {
			if _, p := run(be, tc.send...); !strings.Contains(p, tc.want) {
				t.Errorf("%v %s: panic %q, want one containing %q", be, tc.name, p, tc.want)
			}
		}
	}
}
