// Benchmark harness reproducing the paper's evaluation artifacts (see
// DESIGN.md §4): one benchmark per Table 1 row, the reduction rows, the
// static-recompute baselines the rows are compared against, the §8
// entropy ablation, the Figure 1/2 tours, and the batch-pipeline
// amortization curves. Custom metrics report the three DMPC complexity
// measures per update: rounds/update, machines/round (worst),
// words/round (worst).
package dmpc

import (
	"fmt"
	"math/rand"
	"testing"

	"dmpc/internal/core/amm"
	"dmpc/internal/core/dmm"
	"dmpc/internal/core/dyncon"
	"dmpc/internal/core/reduction"
	"dmpc/internal/etour"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/seqdyn"
	"dmpc/internal/staticmpc"
)

const (
	benchN      = 96
	benchCap    = 600
	benchStream = 400
)

func benchStreamUpdates(seed int64) []graph.Update {
	rng := rand.New(rand.NewSource(seed))
	return graph.RandomStream(benchN, benchStream, 0.55, 50, rng)
}

type statsAgg struct {
	updates int
	rounds  int
	active  int
	words   int
}

func (a *statsAgg) add(st mpc.UpdateStats) {
	a.updates++
	a.rounds += st.Rounds
	a.active = max(a.active, st.MaxActive)
	a.words = max(a.words, st.MaxWords)
}

// applyOps is a core's one execution path.
type applyOps = func([]graph.Op) (graph.Results, mpc.MixedStats)

// perOp runs one update as its own one-op ApplyOps window and reports the
// window (a read-free window is its update half) in the per-update shape.
func perOp(apply applyOps, up graph.Update) mpc.UpdateStats {
	_, st := apply([]graph.Op{graph.OpUpdate(up)})
	return st.Updates.UpdateStats
}

// perBatch runs each batch as one write-only ApplyOps window.
func perBatch(apply applyOps) func(graph.Batch) mpc.BatchStats {
	return func(b graph.Batch) mpc.BatchStats {
		_, st := apply(graph.UpdateOps(b))
		return st.Updates
	}
}

func (a *statsAgg) report(b *testing.B) {
	if a.updates == 0 {
		return
	}
	b.ReportMetric(float64(a.rounds)/float64(a.updates), "rounds/update")
	b.ReportMetric(float64(a.active), "machines/round(max)")
	b.ReportMetric(float64(a.words), "words/round(max)")
}

// BenchmarkTable1MaximalMatching reproduces Table 1 row 1 (§3): O(1)
// rounds, O(1) active machines, O(√N) words per round, worst case.
func BenchmarkTable1MaximalMatching(b *testing.B) {
	var agg statsAgg
	for i := 0; i < b.N; i++ {
		m := dmm.New(dmm.Config{N: benchN, CapEdges: benchCap})
		for _, up := range benchStreamUpdates(1) {
			agg.add(perOp(m.ApplyOps, up))
		}
	}
	agg.report(b)
}

// BenchmarkTable1ThreeHalves reproduces Table 1 row 2 (§4): O(1) rounds,
// O(n/√N) machines, O(√N) words.
func BenchmarkTable1ThreeHalves(b *testing.B) {
	var agg statsAgg
	for i := 0; i < b.N; i++ {
		m := dmm.New(dmm.Config{N: benchN, CapEdges: benchCap, ThreeHalves: true})
		for _, up := range benchStreamUpdates(2) {
			agg.add(perOp(m.ApplyOps, up))
		}
	}
	agg.report(b)
}

// BenchmarkTable1TwoPlusEps reproduces Table 1 row 3 (§6): O(1) rounds,
// Õ(1) machines, Õ(1) words — measured on the per-update cycle, the §6
// protocol the row describes.
func BenchmarkTable1TwoPlusEps(b *testing.B) {
	var agg statsAgg
	for i := 0; i < b.N; i++ {
		m := amm.New(amm.Config{N: benchN, Seed: 3})
		for _, up := range benchStreamUpdates(3) {
			var st mpc.UpdateStats
			if up.Op == graph.Insert {
				st = m.Insert(up.U, up.V)
			} else {
				st = m.Delete(up.U, up.V)
			}
			agg.add(st)
		}
	}
	agg.report(b)
}

// BenchmarkTable1ConnComp reproduces Table 1 row 4 (§5): O(1) rounds,
// O(√N) machines, O(√N) words.
func BenchmarkTable1ConnComp(b *testing.B) {
	var agg statsAgg
	for i := 0; i < b.N; i++ {
		d := dyncon.New(dyncon.Config{N: benchN, Mode: dyncon.CC, ExpectedEdges: benchCap})
		for _, up := range benchStreamUpdates(4) {
			agg.add(perOp(d.ApplyOps, up))
		}
	}
	agg.report(b)
}

// BenchmarkTable1MST reproduces Table 1 row 5 (§5.1): O(1) rounds, O(√N)
// machines, O(√N) words; approximation from the (1+ε) bucketing.
func BenchmarkTable1MST(b *testing.B) {
	var agg statsAgg
	for i := 0; i < b.N; i++ {
		d := dyncon.New(dyncon.Config{N: benchN, Mode: dyncon.MST, Eps: 0.25, ExpectedEdges: benchCap})
		for _, up := range benchStreamUpdates(5) {
			agg.add(perOp(d.ApplyOps, up))
		}
	}
	agg.report(b)
}

// BenchmarkReductionConnectivity reproduces the Table 1 reduction row for
// connected components: Õ(1) amortized rounds via HDT, O(1) machines, O(1)
// words per round (Lemma 7.1).
func BenchmarkReductionConnectivity(b *testing.B) {
	var agg statsAgg
	for i := 0; i < b.N; i++ {
		sim := reduction.NewSim(8, 1<<17)
		w := reduction.NewWrapped(sim, reduction.HDTTarget{H: seqdyn.NewHDT(benchN)})
		for _, up := range benchStreamUpdates(6) {
			agg.add(w.Update(up))
		}
	}
	agg.report(b)
}

// BenchmarkReductionMatching reproduces the reduction row for maximal
// matching (Neiman–Solomon substitute, see DESIGN.md).
func BenchmarkReductionMatching(b *testing.B) {
	var agg statsAgg
	for i := 0; i < b.N; i++ {
		sim := reduction.NewSim(8, 1<<17)
		w := reduction.NewWrapped(sim, reduction.NSMatchTarget{M: seqdyn.NewNSMatch(benchN, benchCap)})
		for _, up := range benchStreamUpdates(7) {
			agg.add(w.Update(up))
		}
	}
	agg.report(b)
}

// BenchmarkReductionMST reproduces the reduction row for minimum spanning
// trees.
func BenchmarkReductionMST(b *testing.B) {
	var agg statsAgg
	for i := 0; i < b.N; i++ {
		sim := reduction.NewSim(8, 1<<17)
		w := reduction.NewWrapped(sim, reduction.MSFTarget{F: seqdyn.NewDynMSF(benchN)})
		for _, up := range benchStreamUpdates(8) {
			agg.add(w.Update(up))
		}
	}
	agg.report(b)
}

// BenchmarkBatchPipeline measures the batch-dynamic update pipeline: each
// core's ApplyOps is driven over the same stream in write-only windows of
// k ∈ {1, 8, 64}; the metric to watch is amortized rounds/update dropping
// as k grows (the §7 reduction replays sequentially and stays flat by
// design).
func BenchmarkBatchPipeline(b *testing.B) {
	type runner struct {
		name string
		mk   func() func(graph.Batch) mpc.BatchStats
	}
	runners := []runner{
		{"MaximalMatching", func() func(graph.Batch) mpc.BatchStats {
			return perBatch(dmm.New(dmm.Config{N: benchN, CapEdges: benchCap}).ApplyOps)
		}},
		{"ThreeHalves", func() func(graph.Batch) mpc.BatchStats {
			return perBatch(dmm.New(dmm.Config{N: benchN, CapEdges: benchCap, ThreeHalves: true}).ApplyOps)
		}},
		{"TwoPlusEps", func() func(graph.Batch) mpc.BatchStats {
			return perBatch(amm.New(amm.Config{N: benchN, Seed: 13}).ApplyOps)
		}},
		{"ConnComp", func() func(graph.Batch) mpc.BatchStats {
			return perBatch(dyncon.New(dyncon.Config{N: benchN, Mode: dyncon.CC, ExpectedEdges: benchCap}).ApplyOps)
		}},
		{"MST", func() func(graph.Batch) mpc.BatchStats {
			return perBatch(dyncon.New(dyncon.Config{N: benchN, Mode: dyncon.MST, Eps: 0.25, ExpectedEdges: benchCap}).ApplyOps)
		}},
		{"ReductionConnectivity", func() func(graph.Batch) mpc.BatchStats {
			sim := reduction.NewSim(8, 1<<17)
			w := reduction.NewWrapped(sim, reduction.HDTTarget{H: seqdyn.NewHDT(benchN)})
			return func(batch graph.Batch) mpc.BatchStats {
				st := mpc.BatchStats{Updates: len(batch)}
				for _, up := range batch {
					st.Rounds += w.Update(up).Rounds
				}
				return st
			}
		}},
	}
	for _, r := range runners {
		for _, k := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/k=%d", r.name, k), func(b *testing.B) {
				var rounds, updates, batches int
				for i := 0; i < b.N; i++ {
					apply := r.mk()
					for _, batch := range graph.Chunk(benchStreamUpdates(14), k) {
						st := apply(batch)
						rounds += st.Rounds
						updates += st.Updates
						batches++
					}
				}
				if updates > 0 {
					b.ReportMetric(float64(rounds)/float64(updates), "rounds/update(amortized)")
					b.ReportMetric(float64(rounds)/float64(batches), "rounds/batch")
				}
			})
		}
	}
}

// BenchmarkQueryPipeline measures the read side of the op pipeline: after
// a warm-up stream, read-only ApplyOps windows of k ∈ {1, 8, 64} queries
// are driven through each core; the metric to watch is amortized
// rounds/query dropping from ~2 (resp. 1) toward 2/k (resp. 1/k), the
// read-side mirror of the batch-dynamic update curves.
func BenchmarkQueryPipeline(b *testing.B) {
	connected := func(rng *rand.Rand) graph.Op { return graph.OpQConnected(rng.Intn(benchN), rng.Intn(benchN)) }
	mateOf := func(rng *rand.Rand) graph.Op { return graph.OpQMateOf(rng.Intn(benchN)) }
	runners := []struct {
		name  string
		query func(*rand.Rand) graph.Op
		mk    func() applyOps
	}{
		{"ConnComp", connected, func() applyOps {
			return dyncon.New(dyncon.Config{N: benchN, Mode: dyncon.CC, ExpectedEdges: benchCap}).ApplyOps
		}},
		{"MaximalMatching", mateOf, func() applyOps {
			return dmm.New(dmm.Config{N: benchN, CapEdges: benchCap}).ApplyOps
		}},
		{"TwoPlusEps", mateOf, func() applyOps {
			return amm.New(amm.Config{N: benchN, Seed: 13}).ApplyOps
		}},
	}
	for _, r := range runners {
		for _, k := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/k=%d", r.name, k), func(b *testing.B) {
				apply := r.mk()
				for _, batch := range graph.Chunk(benchStreamUpdates(14), 32) {
					apply(graph.UpdateOps(batch))
				}
				rng := rand.New(rand.NewSource(31))
				var queries, rounds, words int
				for i := 0; i < b.N; i++ {
					for q := 0; q < 128; q += k {
						ops := make([]graph.Op, k)
						for j := range ops {
							ops[j] = r.query(rng)
						}
						_, st := apply(ops)
						queries += st.Queries.Queries
						rounds += st.Queries.Rounds
						words += st.Queries.SumWords
					}
				}
				if rounds > 0 {
					b.ReportMetric(float64(rounds)/float64(queries), "rounds/query(amortized)")
					b.ReportMetric(float64(words)/float64(rounds), "words/round(mean)")
				}
			})
		}
	}
}

// BenchmarkStaticRecomputeCC is the baseline the §5 row is compared
// against: recomputing components from scratch after every update costs
// O(log n) rounds with all machines active and Ω(N) communication.
func BenchmarkStaticRecomputeCC(b *testing.B) {
	updates := benchStreamUpdates(9)
	var rounds, words, active, runs int
	for i := 0; i < b.N; i++ {
		g := graph.New(benchN)
		for s, up := range updates {
			g.Apply(up)
			if s%20 != 0 {
				continue // recompute periodically; per-update would dwarf the bench
			}
			_, res := staticmpc.ConnectedComponents(g, 0, 0)
			rounds += res.Rounds
			words += res.MaxWords
			if res.MaxActive > active {
				active = res.MaxActive
			}
			runs++
		}
	}
	if runs > 0 {
		b.ReportMetric(float64(rounds)/float64(runs), "rounds/recompute")
		b.ReportMetric(float64(active), "machines/round(max)")
		b.ReportMetric(float64(words)/float64(runs), "words/round(mean-max)")
	}
}

// BenchmarkStaticRecomputeMatching is the static matching baseline
// (randomized proposals, O(log n) rounds).
func BenchmarkStaticRecomputeMatching(b *testing.B) {
	updates := benchStreamUpdates(10)
	var rounds, runs int
	for i := 0; i < b.N; i++ {
		g := graph.New(benchN)
		for s, up := range updates {
			g.Apply(up)
			if s%20 != 0 {
				continue
			}
			_, res := staticmpc.MaximalMatching(g, 0, 0, int64(s))
			rounds += res.Rounds
			runs++
		}
	}
	if runs > 0 {
		b.ReportMetric(float64(rounds)/float64(runs), "rounds/recompute")
	}
}

// BenchmarkStaticRecomputeMSF is the static MST baseline (filtering).
func BenchmarkStaticRecomputeMSF(b *testing.B) {
	updates := benchStreamUpdates(11)
	var rounds, runs int
	for i := 0; i < b.N; i++ {
		g := graph.New(benchN)
		for s, up := range updates {
			g.Apply(up)
			if s%20 != 0 {
				continue
			}
			_, res := staticmpc.MinSpanningForest(g, 8)
			rounds += res.Rounds
			runs++
		}
	}
	if runs > 0 {
		b.ReportMetric(float64(rounds)/float64(runs), "rounds/recompute")
	}
}

// BenchmarkAblationEntropy quantifies §8's communication-entropy metric:
// the coordinator-based §3 algorithm concentrates traffic (low entropy)
// while the broadcast-based §5 algorithm spreads it (high entropy).
func BenchmarkAblationEntropy(b *testing.B) {
	var coordinated, broadcast float64
	for i := 0; i < b.N; i++ {
		m := dmm.New(dmm.Config{N: benchN, CapEdges: benchCap})
		d := dyncon.New(dyncon.Config{N: benchN, Mode: dyncon.CC, ExpectedEdges: benchCap})
		for _, up := range benchStreamUpdates(12) {
			perOp(m.ApplyOps, up)
			perOp(d.ApplyOps, up)
		}
		coordinated = m.Cluster().CommEntropy()
		broadcast = d.Cluster().CommEntropy()
	}
	b.ReportMetric(coordinated, "entropy-coordinator(bits)")
	b.ReportMetric(broadcast, "entropy-broadcast(bits)")
}

// BenchmarkFigure12EulerTours regenerates the tours of Figures 1 and 2
// via the index-arithmetic forest (correctness is pinned in the etour
// tests; this measures the op cost).
func BenchmarkFigure12EulerTours(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fo := etour.NewForest(7)
		fo.BuildFromTree(map[int][]int{1: {2, 4}, 2: {1, 3}, 3: {2}, 4: {1}}, 1)
		fo.BuildFromTree(map[int][]int{0: {5}, 5: {0, 6}, 6: {5}}, 0)
		fo.Link(6, 4) // Figure 1(iii): insert (e,g)
		fo.Cut(6, 4)
		fo.Link(0, 1)
		fo.Cut(0, 1) // Figure 2(iii): delete (a,b)
	}
}

// BenchmarkScalingCommPerRound verifies the O(√N) communication shape of
// the §5 row: quadrupling N should roughly double worst-case words per
// round. The two metrics let the ratio be read off directly.
func BenchmarkScalingCommPerRound(b *testing.B) {
	measure := func(n int) float64 {
		d := dyncon.New(dyncon.Config{N: n, Mode: dyncon.CC, ExpectedEdges: 4 * n})
		rng := rand.New(rand.NewSource(13))
		worst := 0
		for _, up := range graph.RandomStream(n, 200, 0.55, 1, rng) {
			worst = max(worst, perOp(d.ApplyOps, up).MaxWords)
		}
		return float64(worst)
	}
	var small, big float64
	for i := 0; i < b.N; i++ {
		small = measure(64)
		big = measure(256)
	}
	b.ReportMetric(small, "words/round(N=64)")
	b.ReportMetric(big, "words/round(N=256)")
	if small > 0 {
		b.ReportMetric(big/small, "growth-per-4x-input")
	}
}
