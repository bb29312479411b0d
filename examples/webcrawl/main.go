// Web-crawl connectivity: the paper's "dynamic structure of the Web"
// scenario. A sliding window of hyperlinks (new pages appear, stale links
// expire) is tracked by the §5 connectivity structure; the number of
// connected components — e.g. distinct link farms / communities — stays
// queryable after every link event at O(1) rounds per event, with the
// communication entropy of §8 reported at the end (broadcast-style
// protocols spread load evenly, unlike coordinator-based ones).
package main

import (
	"fmt"
	"math/rand"

	"dmpc"
	"dmpc/internal/graph"
)

func main() {
	const pages = 300
	const window = 500
	const events = 1500
	rng := rand.New(rand.NewSource(99))

	cc := dmpc.NewConnectivity(pages, 2*window)
	g := dmpc.NewGraph(pages)

	stream := graph.SlidingWindow(pages, window, events, 1, rng)
	var sumRounds int
	for _, up := range stream {
		_, st := cc.Apply([]dmpc.Op{dmpc.OpOf(up)}) // one link event, one window
		g.Apply(up)
		sumRounds += st.Rounds()
	}

	// Component census from the maintained labels (driver-side validation
	// oracle — a protocol read per page would be the unbatched query
	// pattern the query pipeline exists to avoid, and would skew the §8
	// entropy metric reported below).
	sizes := map[int64]int{}
	for v := 0; v < pages; v++ {
		sizes[cc.CompOf(v)]++
	}
	largest := 0
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	fmt.Printf("after %d link events (window %d): %d live links\n", events, window, g.M())
	fmt.Printf("communities: %d (oracle %d), largest %d pages\n",
		len(sizes), graph.NumComponents(g), largest)
	fmt.Printf("mean rounds/event: %.2f; comm entropy %.2f bits (§8 metric)\n",
		float64(sumRounds)/float64(len(stream)), cc.Cluster().CommEntropy())
	res, _ := cc.Apply([]dmpc.Op{dmpc.QConnected(0, 42)})
	fmt.Println("sample query: page 0 reaches page 42?", res[0].Bool)
}
