// Quickstart: build the paper's running example hypergraph (Fig. 1),
// compute its s-line graphs for s = 1..4 (Fig. 2), and run s-measures
// on them.
package main

import (
	"context"
	"fmt"
	"log"

	"hyperline"
)

func main() {
	// The hypergraph of Fig. 1: vertices a..f (0..5), hyperedges
	// 1:{a,b,c}, 2:{b,c,d}, 3:{a,b,c,d,e}, 4:{e,f}.
	h := hyperline.FromEdgeSlices([][]uint32{
		{0, 1, 2},
		{1, 2, 3},
		{0, 1, 2, 3, 4},
		{4, 5},
	}, 6)

	fmt.Printf("hypergraph: %d vertices, %d hyperedges, %d incidences\n",
		h.NumVertices(), h.NumEdges(), h.Incidences())

	// One query answers the whole s-sweep; entries come back in
	// ascending s.
	ctx := context.Background()
	qr, err := hyperline.Execute(ctx, hyperline.Query{Hypergraph: h, S: []int{1, 2, 3, 4}})
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range qr.Entries {
		s, res := e.S, e.Result
		fmt.Printf("\ns=%d line graph: %d nodes, %d edges\n",
			s, res.Graph.NumNodes(), res.Graph.NumEdges())
		for _, e := range res.Graph.Edges() {
			fmt.Printf("  hyperedge %d -- hyperedge %d (overlap %d)\n",
				res.HyperedgeID(e.U)+1, res.HyperedgeID(e.V)+1, e.W)
		}
		cc := hyperline.SConnectedComponents(res)
		fmt.Printf("  %d-connected components: %d\n", s, cc.Count)
	}

	// The dual view: the 1-clique graph is the clique expansion H₂
	// (Fig. 3), linking vertices that share a hyperedge.
	cq, err := hyperline.Execute(ctx, hyperline.Query{
		Hypergraph: h, Kind: hyperline.KindClique, S: []int{1},
		Options: hyperline.Options{NoSqueeze: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	clique := cq.Entries[0].Result
	fmt.Printf("\nclique expansion: %d nodes, %d edges\n",
		clique.Graph.NumNodes(), clique.Graph.NumEdges())
	fmt.Printf("vertices b,c co-occur in %d hyperedges (adj(b,c))\n",
		clique.Graph.Weight(1, 2))
}
