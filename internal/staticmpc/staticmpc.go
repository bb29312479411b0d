// Package staticmpc implements the static MPC algorithms the paper uses as
// recompute-from-scratch baselines and preprocessing substrates:
//
//   - connected components by min-label propagation with pointer doubling
//     (O(log n) rounds, sublinear memory per machine — the [14]-style
//     baseline the paper contrasts against),
//   - maximal matching by randomized proposals (Israeli–Itai style [23],
//     O(log n) rounds with high probability),
//   - spanning forest / minimum spanning forest by filtering (Lattanzi et
//     al. [26] — local Kruskal per machine, halving the machine count each
//     round; requires the larger per-machine memory the paper notes static
//     algorithms need), and
//   - O(1)-round distributed sample sort (Goodrich et al. [19]).
//
// All algorithms run on an mpc.Cluster and are accounted in rounds, active
// machines and words exactly like the dynamic algorithms, which is what
// makes the static-vs-dynamic benches meaningful: one recomputation stands
// where a dynamic algorithm has one update, so a run is billed as a
// wave-free window of one update and returns that window's update half.
package staticmpc

// Layout distributes n vertices over mu machines in contiguous blocks.
type Layout struct {
	N, Mu int
}

// Owner returns the machine owning vertex v.
func (l Layout) Owner(v int) int {
	per := (l.N + l.Mu - 1) / l.Mu
	if per == 0 {
		per = 1
	}
	o := v / per
	if o >= l.Mu {
		o = l.Mu - 1
	}
	return o
}
