package hyperline_test

import (
	"context"
	"fmt"

	"hyperline"
)

// ExampleExecute computes the 2-line graph of the paper's running
// example: hyperedges sharing at least two vertices become adjacent.
func ExampleExecute() {
	h := hyperline.FromEdgeSlices([][]uint32{
		{0, 1, 2},       // hyperedge 0: {a,b,c}
		{1, 2, 3},       // hyperedge 1: {b,c,d}
		{0, 1, 2, 3, 4}, // hyperedge 2: {a,b,c,d,e}
		{4, 5},          // hyperedge 3: {e,f}
	}, 6)
	qr, err := hyperline.Execute(context.Background(), hyperline.Query{Hypergraph: h, S: []int{2}})
	if err != nil {
		panic(err)
	}
	res := qr.Entries[0].Result
	for _, e := range res.Graph.Edges() {
		fmt.Printf("hyperedge %d -- %d (overlap %d)\n",
			res.HyperedgeID(e.U), res.HyperedgeID(e.V), e.W)
	}
	// Output:
	// hyperedge 0 -- 1 (overlap 2)
	// hyperedge 0 -- 2 (overlap 3)
	// hyperedge 1 -- 2 (overlap 3)
}

// ExampleExecute_clique computes the clique expansion (the 1-clique
// graph) and reads off adj(b, c), the number of hyperedges containing
// both vertices.
func ExampleExecute_clique() {
	h := hyperline.FromEdgeSlices([][]uint32{
		{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3, 4}, {4, 5},
	}, 6)
	qr, err := hyperline.Execute(context.Background(), hyperline.Query{
		Hypergraph: h, Kind: hyperline.KindClique, S: []int{1},
		Options: hyperline.Options{NoSqueeze: true},
	})
	if err != nil {
		panic(err)
	}
	clique := qr.Entries[0].Result
	fmt.Println("edges:", clique.Graph.NumEdges())
	fmt.Println("adj(b,c):", clique.Graph.Weight(1, 2))
	// Output:
	// edges: 11
	// adj(b,c): 3
}

// ExampleExecute_ensemble sweeps s with one Algorithm 3 counting pass
// and reports when the line graph becomes empty, together with
// MaxOverlap.
func ExampleExecute_ensemble() {
	h := hyperline.FromEdgeSlices([][]uint32{
		{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3, 4}, {4, 5},
	}, 6)
	qr, err := hyperline.Execute(context.Background(), hyperline.Query{
		Hypergraph: h, S: []int{1, 2, 3, 4},
		Options: hyperline.Options{Algorithm: hyperline.AlgoEnsemble},
	})
	if err != nil {
		panic(err)
	}
	for _, e := range qr.Entries {
		fmt.Printf("s=%d: %d edges\n", e.S, e.Result.Graph.NumEdges())
	}
	fmt.Println("max overlap:", hyperline.MaxOverlap(h, 0))
	// Output:
	// s=1: 4 edges
	// s=2: 3 edges
	// s=3: 2 edges
	// s=4: 0 edges
	// max overlap: 3
}

// ExampleSession queries one dataset at several s values through a
// caching session: each distinct projection runs the pipeline once and
// repeats are served from the LRU.
func ExampleSession() {
	sess := hyperline.NewSession(hyperline.SessionOptions{})
	sess.Add("paper", hyperline.FromEdgeSlices([][]uint32{
		{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3, 4}, {4, 5},
	}, 6))
	sess.Warmup("paper", []int{1, 2, 3}, hyperline.Options{})
	ctx := context.Background()
	qr, _ := sess.Execute(ctx, hyperline.Query{Dataset: "paper", S: []int{1, 2, 3}})
	for _, e := range qr.Entries {
		fmt.Printf("s=%d: %d edges\n", e.S, e.Result.Graph.NumEdges())
	}
	qr, _ = sess.Execute(ctx, hyperline.Query{Dataset: "paper", S: []int{2}}) // cache hit
	fmt.Println("components at s=2:", hyperline.SConnectedComponents(qr.Entries[0].Result).Count)
	st := sess.CacheStats()
	fmt.Println("cached projections:", st.Entries)
	// Output:
	// s=1: 4 edges
	// s=2: 3 edges
	// s=3: 2 edges
	// components at s=2: 1
	// cached projections: 3
}

// ExampleSConnectedComponentsDirect finds s-connected components
// without materializing the line graph.
func ExampleSConnectedComponentsDirect() {
	h := hyperline.FromEdgeSlices([][]uint32{
		{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3, 4}, {4, 5},
	}, 6)
	fmt.Println(hyperline.SConnectedComponentsDirect(h, 3))
	// Output:
	// [0 0 0 3]
}
