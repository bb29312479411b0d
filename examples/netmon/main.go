// Network monitor: a read-heavy workload on the §5 connectivity
// structure. A datacenter fabric (spine/leaf grid plus cross links)
// suffers continuous link flaps while a monitoring plane fires large
// bursts of reachability probes — "can rack u still reach rack v?" —
// between maintenance batches. Probes dominate updates ~10:1, so the
// read path's cost is the whole story: issued one by one each probe pays
// the §5 query's two rounds, but a maintenance cycle submitted as one
// mixed op stream (the flap updates followed by the probe storm) lets
// the wave scheduler share windows across the probes and the amortized
// cost collapses toward 2/k rounds per probe. The accounting still keeps
// the halves apart — a MixedStats window partitions its rounds between
// its update and query halves by wave.
package main

import (
	"fmt"
	"math/rand"

	"dmpc"
	"dmpc/internal/graph"
)

func main() {
	const racks = 240
	const flapBatches = 12
	const flapsPerBatch = 24
	const probesPerBatch = 256

	rng := rand.New(rand.NewSource(4))
	g := dmpc.NewGraph(racks)
	cc := dmpc.NewConnectivity(racks, 6*racks)

	// Bring the fabric up: a 12x20 grid of racks with some cross links.
	grid := graph.Grid(12, 20, 1, rng)
	var up []dmpc.Op
	for _, e := range grid.Edges() {
		up = append(up, dmpc.Ins(e.U, e.V))
		g.Insert(e.U, e.V, 1)
	}
	cc.Apply(up)
	fmt.Printf("fabric up: %d racks, %d links\n", racks, g.M())

	// Maintenance cycles, each one Apply: a batch of link flaps followed
	// by a probe storm, as a single mixed op stream.
	probes := 0
	var mismatches int
	var updRounds, qryRounds, updates int
	for i := 0; i < flapBatches; i++ {
		var ops []dmpc.Op
		for _, up := range graph.RandomStream(racks, flapsPerBatch, 0.45, 1, rng) {
			if g.Apply(up) {
				ops = append(ops, dmpc.OpOf(up))
			}
		}
		nUpd := len(ops)
		pairs := graph.RandomPairs(racks, probesPerBatch, rng)
		for _, pr := range pairs {
			ops = append(ops, dmpc.QConnected(pr.U, pr.V))
		}

		res, st := cc.Apply(ops)

		// Every probe sits after every flap in the stream, so the oracle
		// view is the post-flap graph.
		comp := graph.Components(g)
		for j, a := range res {
			probes++
			if a.Bool != (comp[pairs[j].U] == comp[pairs[j].V]) {
				mismatches++
			}
		}
		updates += nUpd
		updRounds += st.Updates.Rounds
		qryRounds += st.Queries.Rounds
	}

	fmt.Printf("monitoring plane: %d probes in %d cycles, all matching the oracle: %v\n",
		probes, flapBatches, mismatches == 0)
	fmt.Printf("read path: %.3f amortized rounds/probe (a lone probe pays 2)\n",
		float64(qryRounds)/float64(probes))
	fmt.Printf("write path: %.2f rounds/update across %d flap batches, unperturbed by probes\n",
		float64(updRounds)/float64(updates), flapBatches)
}
