package hyperline

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

func example() *Hypergraph {
	return FromEdgeSlices([][]uint32{
		{0, 1, 2},
		{1, 2, 3},
		{0, 1, 2, 3, 4},
		{4, 5},
	}, 6)
}

// sweep answers one projection per distinct s through Execute.
func sweep(t *testing.T, kind Kind, h *Hypergraph, sValues []int, opt Options) map[int]*Result {
	t.Helper()
	qr, err := Execute(context.Background(), Query{Hypergraph: h, Kind: kind, S: sValues, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int]*Result, len(qr.Entries))
	for _, e := range qr.Entries {
		out[e.S] = e.Result
	}
	return out
}

// project answers the s-line (or s-clique) graph at one s.
func project(t *testing.T, kind Kind, h *Hypergraph, s int, opt Options) *Result {
	t.Helper()
	return sweep(t, kind, h, []int{s}, opt)[s]
}

func TestSLineGraphQuickstart(t *testing.T) {
	res := project(t, KindLine, example(), 2, Options{})
	if res.Graph.NumEdges() != 3 {
		t.Fatalf("2-line graph edges = %d, want 3", res.Graph.NumEdges())
	}
	// Hyperedges 0,1,2 survive; hyperedge 3 ({e,f}) is isolated at s=2.
	if res.Graph.NumNodes() != 3 {
		t.Fatalf("2-line graph nodes = %d, want 3", res.Graph.NumNodes())
	}
	ids := map[uint32]bool{}
	for n := 0; n < res.Graph.NumNodes(); n++ {
		ids[res.HyperedgeID(uint32(n))] = true
	}
	if !ids[0] || !ids[1] || !ids[2] {
		t.Fatalf("wrong surviving hyperedges: %v", ids)
	}
}

func TestSCliqueGraphIsCliqueExpansionAtS1(t *testing.T) {
	// The 1-clique graph is the clique expansion H₂ (Figure 3): edges
	// between every vertex pair co-occurring in some hyperedge.
	res := project(t, KindClique, example(), 1, Options{NoSqueeze: true})
	want := [][2]uint32{
		{0, 1}, {0, 2}, {0, 3}, {0, 4},
		{1, 2}, {1, 3}, {1, 4},
		{2, 3}, {2, 4},
		{3, 4},
		{4, 5},
	}
	var got [][2]uint32
	for _, e := range res.Graph.Edges() {
		got = append(got, [2]uint32{e.U, e.V})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("2-section edges = %v, want %v", got, want)
	}
}

func TestSCliqueWeightsAreSharedEdgeCounts(t *testing.T) {
	// adj(b,c) = 3: vertices b and c share three hyperedges.
	res := project(t, KindClique, example(), 1, Options{NoSqueeze: true})
	if w := res.Graph.Weight(1, 2); w != 3 {
		t.Fatalf("weight(b,c) = %d, want 3", w)
	}
}

func TestSConnectedComponentsOnExample(t *testing.T) {
	res := project(t, KindLine, example(), 1, Options{NoSqueeze: true})
	cc := SConnectedComponents(res)
	if cc.Count != 1 {
		t.Fatalf("1-line graph components = %d, want 1", cc.Count)
	}
	res3 := project(t, KindLine, example(), 3, Options{NoSqueeze: true})
	cc3 := SConnectedComponents(res3)
	// s=3: {0,1,2} connected; 3 isolated → 2 components.
	if cc3.Count != 2 {
		t.Fatalf("3-line graph components = %d, want 2", cc3.Count)
	}
}

func TestEnsembleMatchesSingleRuns(t *testing.T) {
	h := example()
	ens := sweep(t, KindLine, h, []int{1, 2, 3}, Options{Algorithm: AlgoEnsemble})
	for s := 1; s <= 3; s++ {
		single := project(t, KindLine, h, s, Options{})
		if ens[s].Graph.NumEdges() != single.Graph.NumEdges() {
			t.Fatalf("s=%d: ensemble %d edges, single %d", s,
				ens[s].Graph.NumEdges(), single.Graph.NumEdges())
		}
	}
}

func TestAlgorithmsAgreeViaFacade(t *testing.T) {
	h := example()
	a1 := project(t, KindLine, h, 2, Options{Algorithm: AlgoSetIntersection, ExactWeights: true})
	a2 := project(t, KindLine, h, 2, Options{Algorithm: AlgoHashmap})
	a2t := project(t, KindLine, h, 2, Options{Algorithm: AlgoHashmap, Counters: StoreDense})
	a3 := project(t, KindLine, h, 2, Options{Algorithm: AlgoEnsemble})
	sp := project(t, KindLine, h, 2, Options{Algorithm: AlgoSpGEMM})
	auto := project(t, KindLine, h, 2, Options{Algorithm: AlgoAuto})
	if !reflect.DeepEqual(a1.Graph.Edges(), a2.Graph.Edges()) {
		t.Fatal("algorithm 1 and 2 disagree")
	}
	if !reflect.DeepEqual(a2.Graph.Edges(), a2t.Graph.Edges()) {
		t.Fatal("counter stores disagree")
	}
	for name, res := range map[string]*Result{"ensemble": a3, "spgemm": sp, "auto": auto} {
		if !reflect.DeepEqual(res.Graph.Edges(), a2.Graph.Edges()) {
			t.Fatalf("%s strategy disagrees with algorithm 2", name)
		}
	}
	if auto.Plan.Strategy == "" {
		t.Fatal("planner default must record its plan")
	}
}

func TestSLineGraphsBatchMatchesSingles(t *testing.T) {
	h := example()
	batch := sweep(t, KindLine, h, []int{1, 2, 3, 4}, Options{})
	if len(batch) != 4 {
		t.Fatalf("batch returned %d results, want 4", len(batch))
	}
	for s := 1; s <= 4; s++ {
		single := project(t, KindLine, h, s, Options{})
		if !reflect.DeepEqual(batch[s].Graph.Edges(), single.Graph.Edges()) {
			t.Fatalf("s=%d: batch differs from single run", s)
		}
	}
	cliques := sweep(t, KindClique, h, []int{1, 2}, Options{NoSqueeze: true})
	want := project(t, KindClique, h, 1, Options{NoSqueeze: true})
	if !reflect.DeepEqual(cliques[1].Graph.Edges(), want.Graph.Edges()) {
		t.Fatal("batched clique graphs differ from single run")
	}
}

func TestBetweennessAndPageRankOnLineGraph(t *testing.T) {
	res := project(t, KindLine, example(), 1, Options{NoSqueeze: true})
	b := SBetweenness(res, 2)
	if len(b) != 4 {
		t.Fatalf("betweenness len = %d, want 4", len(b))
	}
	// Node 2 (hyperedge 3) is the cut vertex between node 3
	// (hyperedge 4) and nodes 0, 1.
	if b[2] <= b[0] || b[2] <= b[1] || b[2] <= b[3] {
		t.Fatalf("hyperedge 3 should have the highest betweenness: %v", b)
	}
	norm := NormalizeBetweenness(b)
	if norm[2] <= 0 || norm[2] > 1 {
		t.Fatalf("normalized betweenness out of range: %v", norm)
	}
	pr := PageRank(res.Graph, 2)
	sum := 0.0
	for _, p := range pr {
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("PageRank sums to %f", sum)
	}
}

func TestSDistances(t *testing.T) {
	res := project(t, KindLine, example(), 1, Options{NoSqueeze: true})
	d := SDistances(res.Graph, 0)
	// 0-1 adjacent, 0-2 adjacent, 0-3 via 2.
	want := []int32{0, 1, 1, 2}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("distances = %v, want %v", d, want)
	}
}

func TestLabelPropagationCCFacade(t *testing.T) {
	res := project(t, KindLine, example(), 3, Options{NoSqueeze: true})
	lp := LabelPropagationCC(res.Graph, 4)
	uf := SConnectedComponents(res)
	if lp.Count != uf.Count || !reflect.DeepEqual(lp.Label, uf.Label) {
		t.Fatal("LPCC disagrees with union-find")
	}
}

func TestNormalizedAlgebraicConnectivityFacade(t *testing.T) {
	// 1-line graph of the example: triangle (0,1,2) + pendant 3 on 2.
	res := project(t, KindLine, example(), 1, Options{})
	lam := NormalizedAlgebraicConnectivity(res.Graph)
	if lam <= 0 || lam >= 2 {
		t.Fatalf("λ₂ = %f out of (0,2)", lam)
	}
	// The triangle-only s=2 graph is better connected.
	res2 := project(t, KindLine, example(), 2, Options{})
	if l2 := NormalizedAlgebraicConnectivity(res2.Graph); l2 <= lam {
		t.Fatalf("λ₂(s=2)=%f should exceed λ₂(s=1)=%f", l2, lam)
	}
}

func TestToplexOption(t *testing.T) {
	res := project(t, KindLine, example(), 1, Options{Toplex: true})
	// Only toplexes {3, 4} (ids 2, 3) survive → a single edge.
	if res.Graph.NumEdges() != 1 {
		t.Fatalf("toplex 1-line edges = %d, want 1", res.Graph.NumEdges())
	}
}

func TestLoadSaveFacade(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "h.hgr")
	h := example()
	if err := Save(path, h); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != h.NumEdges() || got.Incidences() != h.Incidences() {
		t.Fatal("load/save round trip failed")
	}
}

func TestComputeStatsFacade(t *testing.T) {
	s := ComputeStats("example", example())
	if s.NumEdges != 4 || s.MaxEdgeSize != 5 {
		t.Fatalf("bad stats %+v", s)
	}
}

func TestBuilderFacade(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	h := b.Build()
	res := project(t, KindLine, h, 1, Options{})
	if res.Graph.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", res.Graph.NumEdges())
	}
}
