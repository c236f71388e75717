package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hyperline/internal/par"
)

// randomSortedEdges generates a BuildSorted-contract edge list: unique
// (U, V) keys with U < V, sorted, over numNodes IDs.
func randomSortedEdges(rng *rand.Rand, numNodes, want int) []Edge {
	seen := map[[2]uint32]bool{}
	edges := make([]Edge, 0, want)
	for len(edges) < want {
		u := uint32(rng.Intn(numNodes))
		v := uint32(rng.Intn(numNodes))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]uint32{u, v}] {
			continue
		}
		seen[[2]uint32{u, v}] = true
		edges = append(edges, Edge{U: u, V: v, W: uint32(rng.Intn(50) + 1)})
	}
	slices.SortFunc(edges, func(a, b Edge) int {
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.V) - int(b.V)
	})
	return edges
}

func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.Squeezed() != b.Squeezed() {
		t.Fatalf("shape mismatch: (%d,%d,%v) vs (%d,%d,%v)",
			a.NumNodes(), a.NumEdges(), a.Squeezed(), b.NumNodes(), b.NumEdges(), b.Squeezed())
	}
	for u := 0; u < a.NumNodes(); u++ {
		if a.OrigID(uint32(u)) != b.OrigID(uint32(u)) {
			t.Fatalf("node %d: orig ID %d vs %d", u, a.OrigID(uint32(u)), b.OrigID(uint32(u)))
		}
		aIDs, aWs := a.Neighbors(uint32(u))
		bIDs, bWs := b.Neighbors(uint32(u))
		if !reflect.DeepEqual(aIDs, bIDs) || !reflect.DeepEqual(aWs, bWs) {
			t.Fatalf("node %d: adjacency mismatch\n%v %v\n%v %v", u, aIDs, aWs, bIDs, bWs)
		}
	}
}

func TestBuildSortedMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		numNodes := 2 + rng.Intn(200)
		maxEdges := numNodes * (numNodes - 1) / 2
		count := rng.Intn(maxEdges/2 + 1)
		edges := randomSortedEdges(rng, numNodes, count)
		for _, squeeze := range []bool{false, true} {
			safe := Build(numNodes, edges, squeeze)
			fast := BuildSorted(numNodes, edges, squeeze, par.Options{})
			graphsEqual(t, safe, fast)
		}
	}
}

func TestBuildSortedEmpty(t *testing.T) {
	for _, squeeze := range []bool{false, true} {
		g := BuildSorted(0, nil, squeeze, par.Options{})
		if g.NumNodes() != 0 || g.NumEdges() != 0 {
			t.Fatalf("empty graph has %d nodes, %d edges", g.NumNodes(), g.NumEdges())
		}
		g = BuildSorted(5, nil, squeeze, par.Options{})
		want := 5
		if squeeze {
			want = 0
		}
		if g.NumNodes() != want {
			t.Fatalf("squeeze=%v: %d nodes, want %d", squeeze, g.NumNodes(), want)
		}
	}
}

func TestBuildSortedDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := randomSortedEdges(rng, 64, 100)
	before := slices.Clone(edges)
	BuildSorted(64, edges, true, par.Options{})
	if !slices.Equal(edges, before) {
		t.Fatal("BuildSorted modified its input slice")
	}
}

// TestBuildCoalesceOrderIndependent is the regression test for the
// sorted-check/sort comparator mismatch: a duplicate (U, V) group must
// coalesce to its maximum weight whether the input arrives sorted (the
// sorted-check accepts it without tie-breaking on W) or shuffled (the
// fallback sort runs). Before the fix the fallback sort ordered
// duplicates by W descending while sorted input kept arrival order, so
// the two paths could only agree because coalescing takes the max —
// which this test pins down.
func TestBuildCoalesceOrderIndependent(t *testing.T) {
	sorted := []Edge{
		{U: 0, V: 1, W: 2}, {U: 0, V: 1, W: 7}, {U: 0, V: 1, W: 4},
		{U: 1, V: 2, W: 9}, {U: 1, V: 2, W: 1},
	}
	shuffled := []Edge{
		{U: 1, V: 2, W: 1}, {U: 0, V: 1, W: 4}, {U: 1, V: 2, W: 9},
		{U: 0, V: 1, W: 7}, {U: 0, V: 1, W: 2},
	}
	reversed := []Edge{ // also exercise V > U normalization
		{U: 2, V: 1, W: 1}, {U: 1, V: 0, W: 4}, {U: 1, V: 2, W: 9},
		{U: 0, V: 1, W: 7}, {U: 1, V: 0, W: 2},
	}
	a := Build(3, sorted, false)
	b := Build(3, shuffled, false)
	c := Build(3, reversed, false)
	graphsEqual(t, a, b)
	graphsEqual(t, a, c)
	if w := a.Weight(0, 1); w != 7 {
		t.Fatalf("edge {0,1} weight = %d, want max 7", w)
	}
	if w := a.Weight(1, 2); w != 9 {
		t.Fatalf("edge {1,2} weight = %d, want max 9", w)
	}
}
