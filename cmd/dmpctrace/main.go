// Command dmpctrace runs one dynamic DMPC algorithm over a random update
// stream and prints a per-update trace of the model accounting — rounds,
// active machines, communicated words — plus solution-quality checks
// against sequential oracles (mm and mm32 also print the running count of
// suspended-stack fallback scans). Every update is its own one-op ApplyOps
// window (amm runs its per-update §6 cycle). It is the quickest way to
// watch the protocols at work.
//
// Usage:
//
//	dmpctrace -alg cc|mst|mm|mm32|amm [-n 32] [-updates 40] [-seed 7]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"dmpc/internal/core/amm"
	"dmpc/internal/core/dmm"
	"dmpc/internal/core/dyncon"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// oneOp runs each update as a one-op ApplyOps window (a read-free window
// is its update half).
func oneOp(apply func([]graph.Op) (graph.Results, mpc.MixedStats)) func(graph.Update) mpc.HalfStats {
	return func(up graph.Update) mpc.HalfStats {
		_, st := apply([]graph.Op{graph.OpUpdate(up)})
		return st.Updates
	}
}

func main() {
	alg := flag.String("alg", "cc", "algorithm: cc, mst, mm, mm32, amm")
	n := flag.Int("n", 32, "vertices")
	updates := flag.Int("updates", 40, "number of updates")
	seed := flag.Int64("seed", 7, "stream seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	stream := graph.RandomStream(*n, *updates, 0.6, 50, rng)
	g := graph.New(*n)

	var apply func(up graph.Update) mpc.HalfStats
	var quality func() string

	switch *alg {
	case "cc":
		d := dyncon.New(dyncon.Config{N: *n, Mode: dyncon.CC, ExpectedEdges: 6 * *n})
		apply = oneOp(d.ApplyOps)
		quality = func() string {
			mine := make([]int, *n)
			for v := 0; v < *n; v++ {
				mine[v] = int(d.CompOf(v))
			}
			ok := graph.SameLabeling(mine, graph.Components(g))
			return fmt.Sprintf("components=%d correct=%v", graph.NumComponents(g), ok)
		}
	case "mst":
		d := dyncon.New(dyncon.Config{N: *n, Mode: dyncon.MST, ExpectedEdges: 6 * *n})
		apply = oneOp(d.ApplyOps)
		quality = func() string {
			return fmt.Sprintf("forest=%d kruskal=%d", d.ForestWeight(), graph.MSFWeight(g))
		}
	case "mm", "mm32":
		m := dmm.New(dmm.Config{N: *n, CapEdges: 8 * *n, ThreeHalves: *alg == "mm32"})
		apply = oneOp(m.ApplyOps)
		quality = func() string {
			mt := m.MateTable()
			s := fmt.Sprintf("|M|=%d maximal=%v", graph.MatchingSize(mt), graph.IsMaximalMatching(g, mt))
			if *alg == "mm32" {
				s += fmt.Sprintf(" no-aug3=%v", !graph.HasLength3AugPath(g, mt))
			}
			// Suspended-stack scans so far: each is an update that took
			// extra round trips because its alive window had no surrogate.
			return s + fmt.Sprintf(" fallbacks=%d", m.Fallbacks())
		}
	case "amm":
		m := amm.New(amm.Config{N: *n, Seed: *seed})
		apply = func(up graph.Update) mpc.HalfStats {
			if up.Op == graph.Insert {
				return m.Insert(up.U, up.V)
			}
			return m.Delete(up.U, up.V)
		}
		quality = func() string {
			mt := m.MateTable()
			return fmt.Sprintf("|M|=%d deficit=%d backlog=%d",
				graph.MatchingSize(mt), graph.CountFreeFreeEdges(g, mt), m.QueueBacklog())
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *alg)
		os.Exit(2)
	}

	fmt.Printf("%-4s %-18s %7s %9s %8s  %s\n", "#", "update", "rounds", "machines", "words", "solution")
	for i, up := range stream {
		st := apply(up)
		g.Apply(up)
		fmt.Printf("%-4d %-18s %7d %9d %8d  %s\n",
			i, up.String(), st.Rounds, st.MaxActive, st.MaxWords, quality())
	}
}
