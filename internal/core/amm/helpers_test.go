package amm

import (
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// applyBatch runs a write-only ApplyOps window; a read-free window is its
// update half.
func applyBatch(m *M, b graph.Batch) mpc.HalfStats {
	_, st := m.ApplyOps(graph.UpdateOps(b))
	return st.Updates
}

// cycle runs one update through the fixed-schedule per-update driver.
func cycle(m *M, up graph.Update) mpc.HalfStats {
	if up.Op == graph.Insert {
		return m.Insert(up.U, up.V)
	}
	return m.Delete(up.U, up.V)
}
