package dmpc

import (
	"testing"

	"dmpc/internal/core/amm"
	"dmpc/internal/core/reduction"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/seqdyn"
	"dmpc/internal/staticmpc"
)

// TestUpdateDriversBillOneWindow covers the three drivers that run outside
// the op pipeline and used to have a window kind of their own: each now
// bills a wave-free window of one update and hands back its update half.
// What a caller can observe of that is pinned here — the half covers every
// round the driver executed (so the window's query half is empty and
// Rounds() == Updates.Rounds) and the window is closed on return; the
// window's own shape (no waves, empty query half) is TestUpdateAccounting's
// in internal/mpc.
func TestUpdateDriversBillOneWindow(t *testing.T) {
	for _, tc := range []struct {
		name string
		// run drives one update on a fresh cluster and returns the half it
		// was handed plus the cluster (nil when the run owns and drops it).
		run      func() (mpc.HalfStats, *mpc.Cluster)
		executed int // rounds the driver executes, when the cluster cannot say
	}{
		{"staticmpc.MinSpanningForest", func() (mpc.HalfStats, *mpc.Cluster) {
			_, half := staticmpc.MinSpanningForest(graph.Path(8), 4)
			return half, nil
		}, 5}, // filtering halves 4 machines twice (two rounds each), then one final round
		{"reduction.Wrapped.Update", func() (mpc.HalfStats, *mpc.Cluster) {
			sim := reduction.NewSim(4, 0)
			w := reduction.NewWrapped(sim, reduction.HDTTarget{H: seqdyn.NewHDT(8)})
			return w.Update(graph.Update{Op: graph.Insert, U: 0, V: 1, W: 1}), sim.Cluster()
		}, 0},
		{"amm.M.Insert", func() (mpc.HalfStats, *mpc.Cluster) {
			m := amm.New(amm.Config{N: 8, Seed: 1})
			return m.Insert(0, 1), m.Cluster()
		}, 0},
	} {
		half, cl := tc.run()
		executed := tc.executed
		if cl != nil {
			executed = cl.Stats().Rounds // the cluster's lifetime is this one update
			if open := cl.EndMixed(); !open.Equal(mpc.MixedStats{}) {
				t.Errorf("%s: left a window open: %+v", tc.name, open)
			}
		}
		if half.Ops != 1 || half.Rounds == 0 || half.Rounds != executed {
			t.Errorf("%s: update half %+v, driver executed %d rounds — want one update billed all of them", tc.name, half, executed)
		}
		if half.MaxActive == 0 || half.SumWords == 0 {
			t.Errorf("%s: update half %+v lost its machine/word accounting", tc.name, half)
		}
	}
}
