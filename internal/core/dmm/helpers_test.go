package dmm

import (
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// The helpers below are the test suites' sequential spellings of the one
// execution path: a single update or query is an ApplyOps stream of length
// one, a batch is a write-only stream, and a read-free window is its
// update half. "Sequential replay" everywhere in these tests means
// ApplyOps one op at a time.

func applyUpdate(m *M, up graph.Update) mpc.HalfStats {
	return applyBatch(m, graph.Batch{up})
}

func ins(m *M, u, v int) mpc.HalfStats {
	return applyUpdate(m, graph.Update{Op: graph.Insert, U: u, V: v})
}

func del(m *M, u, v int) mpc.HalfStats {
	return applyUpdate(m, graph.Update{Op: graph.Delete, U: u, V: v})
}

func applyBatch(m *M, b graph.Batch) mpc.HalfStats {
	_, st := m.ApplyOps(graph.UpdateOps(b))
	return st.Updates
}

func mateOf(m *M, v int) int {
	res, _ := m.ApplyOps([]graph.Op{graph.OpQMateOf(v)})
	return int(res[0].Int)
}

func matched(m *M, u, v int) bool {
	res, _ := m.ApplyOps([]graph.Op{graph.OpQMatched(u, v)})
	return res[0].Bool
}
