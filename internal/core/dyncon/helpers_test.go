package dyncon

import (
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// The helpers below are the test suites' sequential spellings of the one
// execution path: a single update or query is an ApplyOps stream of length
// one, a batch is a write-only stream, and a read-free window is its
// update half. "Sequential replay" everywhere in these tests means
// ApplyOps one op at a time.

func applyUpdate(d *D, up graph.Update) mpc.HalfStats {
	return applyBatch(d, graph.Batch{up})
}

func ins(d *D, u, v int, w graph.Weight) mpc.HalfStats {
	return applyUpdate(d, graph.Update{Op: graph.Insert, U: u, V: v, W: w})
}

func del(d *D, u, v int) mpc.HalfStats {
	return applyUpdate(d, graph.Update{Op: graph.Delete, U: u, V: v})
}

func applyBatch(d *D, b graph.Batch) mpc.HalfStats {
	_, st := d.ApplyOps(graph.UpdateOps(b))
	return st.Updates
}

func connected(d *D, u, v int) bool {
	res, _ := d.ApplyOps([]graph.Op{graph.OpQConnected(u, v)})
	return res[0].Bool
}

func componentOf(d *D, v int) int64 {
	res, _ := d.ApplyOps([]graph.Op{graph.OpQComponentOf(v)})
	return res[0].Int
}
