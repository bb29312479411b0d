package dmpc

import (
	"runtime"
	"testing"

	"dmpc/internal/core/dmm"
	"dmpc/internal/core/dyncon"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// TestClusterKeepsNoPerWindowState pins the long-run robustness rule for
// the accounting layer: windows are returned to the caller, never hoarded
// by the cluster, so a structure's live heap does not grow with the number
// of windows it has served. 20 000 one-op ApplyOps windows toggle a fixed
// edge set (the graph, and with it the structure's own state, stays
// bounded) through a small inline §5 and §3 instance; the live heap
// after a forced GC at window 20 000 must sit within a fixed slack of its
// value at window 2 000.
func TestClusterKeepsNoPerWindowState(t *testing.T) {
	const (
		n       = 32
		early   = 2_000
		late    = 20_000
		slackKB = 128 // a retained window costs > 100 B; 18 000 of them would not fit
	)
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	cores := []struct {
		name string
		mk   func() func([]graph.Op) (graph.Results, mpc.MixedStats)
	}{
		{"dyncon", func() func([]graph.Op) (graph.Results, mpc.MixedStats) {
			return dyncon.New(dyncon.Config{N: n, Mode: dyncon.CC, ExpectedEdges: 4 * n}).ApplyOps
		}},
		{"dmm", func() func([]graph.Op) (graph.Results, mpc.MixedStats) {
			return dmm.New(dmm.Config{N: n, CapEdges: 4 * n}).ApplyOps
		}},
	}
	for _, c := range cores {
		t.Run(c.name, func(t *testing.T) {
			apply := c.mk()
			g := graph.New(n)
			op := make([]graph.Op, 1)
			var atEarly uint64
			for w := 1; w <= late; w++ {
				// Toggle edge (u, u+stride): a ring of n edges per stride,
				// inserted on one pass and deleted on the next.
				u, stride := w%n, 1+(w/n)%3
				up := graph.Update{Op: graph.Insert, U: u, V: (u + stride) % n, W: 1}
				if g.Has(up.U, up.V) {
					up.Op = graph.Delete
				}
				g.Apply(up)
				op[0] = graph.OpUpdate(up)
				if _, st := apply(op); st.Rounds() == 0 {
					t.Fatalf("window %d billed no rounds", w)
				}
				if w == early {
					atEarly = liveHeap()
				}
			}
			atLate := liveHeap()
			runtime.KeepAlive(apply) // measure the structure, not its absence
			if atLate > atEarly+slackKB<<10 {
				t.Fatalf("live heap grew from %d KiB at window %d to %d KiB at window %d (slack %d KiB): something retains per-window state",
					atEarly>>10, early, atLate>>10, late, slackKB)
			}
			t.Logf("live heap %d KiB at window %d, %d KiB at window %d", atEarly>>10, early, atLate>>10, late)
		})
	}
}
