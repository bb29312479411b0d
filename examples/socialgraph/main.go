// Social-graph matching: the paper's motivating scenario of reacting fast
// to each update ("displaying ads, friend recommendations") — a friendship
// graph evolves continuously and a maximal matching (think: pairing users
// for a feature) is maintained with worst-case O(1) rounds per update,
// instead of recomputing a matching after every change: any such
// recompute must at least read the whole input, N = n + 2m words.
package main

import (
	"fmt"
	"math/rand"

	"dmpc"
	"dmpc/internal/graph"
)

func main() {
	const users = 200
	const churn = 800
	rng := rand.New(rand.NewSource(42))

	mm := dmpc.NewThreeHalvesMatching(users, 4*users)
	g := dmpc.NewGraph(users)

	// Preferential-attachment-ish churn: popular users gain and lose
	// friendships faster, exercising the light/heavy vertex machinery.
	stream := graph.RandomStream(users, churn, 0.65, 1, rng)

	var worstRounds, worstWords int
	for _, up := range stream {
		// One event, one window: react to each update as it happens.
		_, st := mm.Apply([]dmpc.Op{dmpc.OpOf(up)})
		g.Apply(up)
		if st.Rounds() > worstRounds {
			worstRounds = st.Rounds()
		}
		if st.Updates.MaxWords > worstWords {
			worstWords = st.Updates.MaxWords
		}
	}

	mt := mm.MateTable()
	fmt.Printf("after %d churn events: %d friendships, matching of size %d\n",
		churn, g.M(), graph.MatchingSize(mt))
	fmt.Printf("maximal: %v, no length-3 augmenting path (3/2-approx certificate): %v\n",
		graph.IsMaximalMatching(g, mt), !graph.HasLength3AugPath(g, mt))
	fmt.Printf("worst update: %d rounds, %d words in the busiest round\n", worstRounds, worstWords)

	// Contrast with recomputing from scratch: whatever the algorithm, it
	// reads every vertex and both endpoints of every edge.
	fmt.Printf("a static recompute reads the whole input: at least N = n + 2m = %d words\n",
		users+2*g.M())
}
