// Session demonstrates the multi-resolution query workflow the serving
// layer is built for: register a dataset once, warm an s-sweep with a
// single Algorithm 3 ensemble pass, then answer repeated s-line-graph
// and s-measure queries from the shared result cache.
//
// Run with: go run ./examples/session
package main

import (
	"context"
	"fmt"

	"hyperline"
)

func main() {
	// A small community-structured hypergraph: three groups of
	// overlapping hyperedges plus a bridge.
	edges := [][]uint32{
		{0, 1, 2, 3}, {1, 2, 3, 4}, {0, 2, 3, 4},
		{10, 11, 12, 13}, {11, 12, 13, 14}, {10, 12, 13, 14},
		{20, 21, 22}, {21, 22, 23},
		{4, 10}, // bridge
	}
	sess := hyperline.NewSession(hyperline.SessionOptions{})
	sess.Add("communities", hyperline.FromEdgeSlices(edges, 24))

	// One counting pass precomputes every projection of the sweep.
	sweep := []int{1, 2, 3}
	if _, err := sess.Warmup("communities", sweep, hyperline.Options{}); err != nil {
		panic(err)
	}

	// Every query after the warmup is served from the cache.
	ctx := context.Background()
	qr, err := sess.Execute(ctx, hyperline.Query{Dataset: "communities", S: sweep})
	if err != nil {
		panic(err)
	}
	for _, e := range qr.Entries {
		res := e.Result
		cc := hyperline.SConnectedComponents(res)
		fmt.Printf("s=%d: %d nodes, %d edges, %d components (cached %v)\n",
			e.S, res.Graph.NumNodes(), res.Graph.NumEdges(), cc.Count, e.Cached)
	}

	// A measure query reuses the cached projection and caches the
	// measure value in turn.
	mq, err := sess.Execute(ctx, hyperline.Query{Dataset: "communities", S: []int{2}, Measure: "betweenness"})
	if err != nil {
		panic(err)
	}
	m := mq.Entries[0].Measure
	best, bestScore := uint32(0), -1.0
	for u, score := range m.Value.Scores {
		if score > bestScore {
			best, bestScore = m.HyperedgeIDs[u], score
		}
	}
	fmt.Printf("most central hyperedge at s=2: %d\n", best)

	st := sess.CacheStats()
	fmt.Printf("cache: %d entries, %d hits, %d misses\n", st.Entries, st.Hits, st.Misses)
}
