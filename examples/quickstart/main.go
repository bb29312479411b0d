// Quickstart: maintain connected components of a dynamic graph on a
// simulated DMPC cluster in ~50 lines — updates and queries flowing
// through one unified op stream — and read off the paper's O(1)
// rounds-per-update guarantee from the accounting.
//
// Two front doors, one pipeline. Apply takes a prepared []Op slice and
// runs it in one accounting window — use it when the workload is already
// in hand. Ingest (or an Ingestor, for push-style feeding) takes
// timestamped Arrivals and forms batches on the fly: ops join the
// currently-forming set while their schedule claims don't conflict, and
// the set flushes through the same pipeline on a conflict, an age bound,
// or a size bound — every flush is one Apply call. Streaming changes no
// answer, whatever the arrival schedule, and in exchange StreamStats tells
// you each op's rounds-from-arrival-to-answer latency (p50/p95/p99),
// which a batch window cannot express.
package main

import (
	"fmt"

	"dmpc"
)

func main() {
	// A dynamic connectivity structure on 100 vertices.
	cc := dmpc.NewConnectivity(100, 400)

	// Build two chains — 0-1-...-49 and 50-...-99 — as one batch of ops.
	var ops []dmpc.Op
	for i := 0; i < 49; i++ {
		ops = append(ops, dmpc.Ins(i, i+1), dmpc.Ins(50+i, 50+i+1))
	}
	_, built := cc.Apply(ops)

	// One mixed stream: a probe, the bridge insert, a probe, the bridge
	// delete, a probe. Each read is answered against exactly the prefix
	// state its position implies — no waiting for quiescence — and reads
	// that share an update's wave cost no extra rounds.
	res, st := cc.Apply([]dmpc.Op{
		dmpc.QConnected(0, 99), // false: no bridge yet
		dmpc.Ins(49, 50),
		dmpc.QConnected(0, 99), // true: bridge in place
		dmpc.Del(49, 50),
		dmpc.QConnected(0, 99), // false: Euler-tour split finds no replacement
	})
	for i, a := range res {
		fmt.Printf("probe %d: 0 connected to 99? %v\n", i, a.Bool)
	}
	fmt.Printf("mixed stream: %d ops in %d rounds (%d update-half, %d query-half)\n",
		st.Ops, st.Rounds(), st.Updates.Rounds, st.Queries.Rounds)

	// The same ops arriving over time: stream them through an Ingestor
	// with an age bound and read off per-op latency instead of a single
	// window. The answers are bit-identical to the Apply above by the
	// arrival-equivalence contract.
	cc2 := dmpc.NewConnectivity(100, 400)
	cc2.Apply(ops) // same two chains
	sres, sst := dmpc.Ingest(cc2, []dmpc.Arrival{
		{At: 0, Op: dmpc.QConnected(0, 99)},
		{At: 3, Op: dmpc.Ins(49, 50)}, // conflicts with the probe: flushes it
		{At: 5, Op: dmpc.QConnected(0, 99)},
		{At: 9, Op: dmpc.Del(49, 50)},
		{At: 14, Op: dmpc.QConnected(0, 99)},
	}, dmpc.IngestorConfig{MaxAge: 8})
	same := len(sres) == len(res)
	for i := range sres {
		same = same && sres[i] == res[i]
	}
	fmt.Printf("streamed: same answers as Apply: %v; %d flushes, latency p50 %d p99 %d rounds\n",
		same, sst.Flushes, sst.P50(), sst.P99())

	// Two tenants through one front door: tag each tenant's ops, give the
	// read-mostly tenant the heavier wave share, and rate-limit the
	// writer with a token bucket. The stream stats split per tenant, and
	// refused ops come back as typed rejections — never silent drops.
	cc3 := dmpc.NewConnectivity(100, 400, dmpc.WithTenantWeights(map[int]int{1: 3, 2: 1}))
	var tarr []dmpc.Arrival
	for i := 0; i < 8; i++ {
		tarr = append(tarr, dmpc.Arrival{At: int64(4 * i), Op: dmpc.QConnected(0, 99).ForTenant(1)})
		tarr = append(tarr, dmpc.Arrival{At: int64(4 * i), Op: dmpc.Ins(4*i, 4*i+1).ForTenant(2)})
		tarr = append(tarr, dmpc.Arrival{At: int64(4 * i), Op: dmpc.Ins(4*i+2, 4*i+3).ForTenant(2)})
	}
	_, tst := dmpc.Ingest(cc3, tarr, dmpc.IngestorConfig{
		MaxAge:    8,
		Weights:   map[int]int{1: 3, 2: 1},
		Admission: map[int]dmpc.AdmissionPolicy{2: &dmpc.TokenBucket{Rate: 0.25, Burst: 1}},
	})
	fmt.Printf("two tenants: reader p99 %d rounds over %d ops; writer admitted %d, rejected %d\n",
		tst.Tenants[1].P99(), tst.Tenants[1].Ops, tst.Tenants[2].Ops, tst.Tenants[2].Rejected)

	// Tree-DP reads on the same pipeline: weight the vertices and ask
	// aggregates over the maintained forest — the subtree sum under 25
	// with the chain rooted at 0, the 10..20 path sum, the heaviest
	// vertex of 0's component. Constant rounds each, like every read
	// (see examples/orgchart for a full workload).
	var wops []dmpc.Op
	for i := 0; i < 50; i++ {
		wops = append(wops, dmpc.SetWeight(i, dmpc.Weight(i)))
	}
	wops = append(wops, dmpc.QSubtreeSum(0, 25), dmpc.QPathSum(10, 20), dmpc.QTreeTop(0))
	dres, wst := cc.Apply(wops)
	fmt.Printf("tree DP: subtree(25) sums %d, path 10-20 sums %d, heaviest in 0's tree is %d\n",
		dres[0].Int, dres[1].Int, dres[2].Int)

	// Apply hands every window back to the caller — the cluster keeps
	// none — so a run's mean is a fold over the windows it collected.
	var upd, rounds, active, words int
	for _, m := range []dmpc.MixedStats{built, st, wst} {
		upd += m.Updates.Ops
		rounds += m.Updates.Rounds
		active += m.Updates.SumActive
		words += m.Updates.SumWords
	}
	fmt.Printf("whole run: %.2f rounds/update, %.1f machines/round, %.1f words/round on average\n",
		float64(rounds)/float64(upd), float64(active)/float64(rounds), float64(words)/float64(rounds))
}
