package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hyperline/internal/graph"
	"hyperline/internal/hg"
	"hyperline/internal/par"
)

// TestAssemblyDeterminism is the property test for the parallel edge
// assembly: SLineEdges output must be identical — element for element —
// across worker counts, workload distributions, and counter stores, and
// BuildSorted on that output must equal the defensive Build.
func TestAssemblyDeterminism(t *testing.T) {
	// Force real scheduler parallelism so Stage 3's per-worker lists
	// and par.MergeSorted run concurrently even on single-CPU machines.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(20260728))
	stores := []CounterStore{StoreAuto, MapPerIteration, TLSDense, TLSHash}
	strategies := []par.Strategy{par.Blocked, par.Cyclic}
	workerCounts := []int{1, 2, 8}

	for trial := 0; trial < 8; trial++ {
		numVertices := 20 + rng.Intn(120)
		numEdges := 10 + rng.Intn(150)
		h := randomHypergraph(rng, numVertices, numEdges, 10)
		for _, s := range []int{1, 2, 3} {
			reference, _, _ := SLineEdges(context.Background(), h, s, Config{Workers: 1})
			for _, store := range stores {
				for _, strat := range strategies {
					for _, w := range workerCounts {
						cfg := Config{Workers: w, Partition: strat, Store: store, Grain: 1 + rng.Intn(64)}
						got, _, _ := SLineEdges(context.Background(), h, s, cfg)
						if !edgeListsEqual(reference, got) {
							t.Fatalf("trial %d s=%d: %v workers=%d store=%v grain=%d diverges from single-worker reference",
								trial, s, strat, w, store, cfg.Grain)
						}
					}
				}
			}
			// Algorithm 1 with exact weights must agree too.
			for _, strat := range strategies {
				for _, w := range workerCounts {
					cfg := Config{Algorithm: AlgoSetIntersection, DisableShortCircuit: true, Workers: w, Partition: strat}
					got, _, _ := SLineEdges(context.Background(), h, s, cfg)
					if !edgeListsEqual(reference, got) {
						t.Fatalf("trial %d s=%d: algo1 %v workers=%d diverges", trial, s, strat, w)
					}
				}
			}

			// Stage 4: the zero-copy sorted build must equal the
			// defensive Build on the assembly output.
			for _, squeeze := range []bool{false, true} {
				safe := graph.Build(h.NumEdges(), reference, squeeze)
				fast := graph.BuildSorted(h.NumEdges(), reference, squeeze, par.Options{})
				if safe.NumNodes() != fast.NumNodes() || safe.NumEdges() != fast.NumEdges() {
					t.Fatalf("trial %d s=%d squeeze=%v: BuildSorted shape mismatch", trial, s, squeeze)
				}
				for u := 0; u < safe.NumNodes(); u++ {
					aIDs, aWs := safe.Neighbors(uint32(u))
					bIDs, bWs := fast.Neighbors(uint32(u))
					if !reflect.DeepEqual(aIDs, bIDs) || !reflect.DeepEqual(aWs, bWs) {
						t.Fatalf("trial %d s=%d squeeze=%v node %d: BuildSorted adjacency mismatch", trial, s, squeeze, u)
					}
				}
			}
		}
	}
}

func edgeListsEqual(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAssemblyOutputContract verifies the documented SLineEdges
// invariants that BuildSorted's fast path trusts: sorted by (U, V),
// unique keys, U < V.
func TestAssemblyOutputContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randomHypergraph(rng, 80, 120, 10)
	for _, store := range []CounterStore{StoreAuto, MapPerIteration, TLSDense, TLSHash} {
		edges, _, _ := SLineEdges(context.Background(), h, 1, Config{Workers: 8, Store: store})
		for i, e := range edges {
			if e.U >= e.V {
				t.Fatalf("store %v: edge %d violates U < V: %+v", store, i, e)
			}
			if i > 0 && !edgeLess(edges[i-1], e) {
				t.Fatalf("store %v: edges %d/%d out of order: %+v, %+v", store, i-1, i, edges[i-1], e)
			}
		}
	}
}

// TestTLSHashStore forces the open-addressing store (including growth
// from a deliberately tiny initial table) against the oracle.
func TestTLSHashStore(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5; trial++ {
		h := randomHypergraph(rng, 60, 100, 8)
		for _, s := range []int{1, 2} {
			want := NaiveAllPairs(h, s)
			got, _, _ := SLineEdges(context.Background(), h, s, Config{Store: TLSHash, Workers: 3})
			if !edgeListsEqual(want, got) {
				t.Fatalf("trial %d s=%d: TLSHash diverges from oracle", trial, s)
			}
		}
	}
}

func TestOATableGrowth(t *testing.T) {
	tab := newOATable(0, 1<<20) // minimum size, forces growth
	const n = 10000
	for rep := 0; rep < 3; rep++ {
		for k := uint32(0); k < n; k++ {
			tab.incr(k * 7)
			tab.incr(k * 7)
		}
		if len(tab.touched) != n {
			t.Fatalf("rep %d: %d touched slots, want %d", rep, len(tab.touched), n)
		}
		seen := map[uint32]uint32{}
		for _, slot := range tab.touched {
			seen[tab.keys[slot]-1] = tab.vals[slot]
		}
		for k := uint32(0); k < n; k++ {
			if seen[k*7] != 2 {
				t.Fatalf("rep %d: key %d count = %d, want 2", rep, k*7, seen[k*7])
			}
		}
		tab.reset()
		if len(tab.touched) != 0 {
			t.Fatal("reset left touched slots")
		}
	}
}

// TestStoreAutoSelection pins the adaptive heuristic's two regimes.
func TestStoreAutoSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small := randomHypergraph(rng, 50, 40, 8)
	if got, _ := chooseStore(small, 4); got != TLSDense {
		t.Fatalf("small hypergraph chose %v, want TLSDense", got)
	}
	// Disjoint triangles: large hyperedge space, 2-hop frontier of
	// zero. When the worker count pushes the dense arrays over budget,
	// the hash store must win.
	sparse := make([][]uint32, 512)
	for e := range sparse {
		base := uint32(3 * e)
		sparse[e] = []uint32{base, base + 1, base + 2}
	}
	disjoint := hg.FromEdgeSlices(sparse, 3*len(sparse))
	if got, _ := chooseStore(disjoint, 1<<30); got != TLSHash {
		t.Fatalf("over-budget sparse configuration chose %v, want TLSHash", got)
	}
}
