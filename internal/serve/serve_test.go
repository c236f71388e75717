package serve

import (
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/hg"
	"hyperline/internal/hgio"
)

func paperExample() *hg.Hypergraph {
	return hg.FromEdgeSlices([][]uint32{
		{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3, 4}, {4, 5},
	}, 6)
}

// randomHypergraph builds a reproducible hypergraph big enough that a
// pipeline run takes real work (so concurrent requests overlap).
func randomHypergraph(seed int64, edges, vertices, meanSize int) *hg.Hypergraph {
	r := rand.New(rand.NewSource(seed))
	es := make([][]uint32, edges)
	for e := range es {
		size := 1 + r.Intn(2*meanSize)
		seen := map[uint32]bool{}
		for k := 0; k < size; k++ {
			seen[uint32(r.Intn(vertices))] = true
		}
		for v := range seen {
			es[e] = append(es[e], v)
		}
	}
	return hg.FromEdgeSlices(es, vertices)
}

func TestUnknownDataset(t *testing.T) {
	svc := New(Config{})
	if _, _, err := lineGraph(svc, context.Background(), "nope", 2, core.PipelineConfig{}); err == nil {
		t.Fatal("want error for unknown dataset")
	}
	if _, err := svc.Stats("nope"); err == nil {
		t.Fatal("want error for unknown dataset stats")
	}
}

func TestRejectsBadS(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())
	if _, _, err := lineGraph(svc, context.Background(), "h", 0, core.PipelineConfig{}); err == nil {
		t.Fatal("want error for s=0")
	}
	if _, _, err := svc.Warmup(context.Background(), "h", false, []int{2, 0}, core.PipelineConfig{}); err == nil {
		t.Fatal("want error for warmup with s=0")
	}
}

func TestRepeatedQueryHitsCache(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())
	cfg := core.PipelineConfig{}

	r1, cached, err := lineGraph(svc, context.Background(), "h", 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first request must be a miss")
	}
	r2, cached, err := lineGraph(svc, context.Background(), "h", 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("second request must be a hit")
	}
	if r1 != r2 {
		t.Fatal("cache hit must return the identical result pointer")
	}
	direct, _ := core.Run(context.Background(), paperExample(), 2, cfg)
	if !reflect.DeepEqual(r2.Graph.Edges(), direct.Graph.Edges()) {
		t.Fatal("cached edges differ from a direct pipeline run")
	}
	if !reflect.DeepEqual(r2.HyperedgeIDs, direct.HyperedgeIDs) {
		t.Fatal("cached hyperedge IDs differ from a direct pipeline run")
	}
}

func TestExecutionKnobsShareCacheEntry(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())
	r1, _, err := lineGraph(svc, context.Background(), "h", 2, core.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Same request with different worker count / store: same entry.
	r2, cached, err := lineGraph(svc, context.Background(), "h", 2, core.PipelineConfig{
		Core: core.Config{Workers: 3, Store: core.TLSHash},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cached || r1 != r2 {
		t.Fatal("requests differing only in execution knobs must share a cache entry")
	}
}

// TestConcurrentIdenticalRequests is the headline concurrency test: N
// goroutines requesting the same (dataset, s) must all receive the
// pointer-identical cached result, whose edges are byte-identical to a
// direct pipeline call. Run under -race in CI.
func TestConcurrentIdenticalRequests(t *testing.T) {
	h := randomHypergraph(7, 400, 300, 6)
	svc := New(Config{})
	svc.Add("rand", h)
	cfg := core.PipelineConfig{}

	const n = 32
	results := make([]*core.PipelineResult, n)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			res, _, err := lineGraph(svc, context.Background(), "rand", 2, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different result pointer", i)
		}
	}
	direct, _ := core.Run(context.Background(), h, 2, cfg)
	if !reflect.DeepEqual(results[0].Graph.Edges(), direct.Graph.Edges()) {
		t.Fatal("shared result edges differ from a direct pipeline run")
	}
	if st := svc.CacheStats(); st.Entries != 1 {
		t.Fatalf("want exactly 1 cache entry, got %d", st.Entries)
	}
}

// TestConcurrentMixedRequests exercises the cache and singleflight
// under a mixed read/compute workload across s values and orientations.
func TestConcurrentMixedRequests(t *testing.T) {
	h := randomHypergraph(11, 300, 200, 5)
	svc := New(Config{CacheEntries: 8})
	svc.Add("rand", h)
	cfg := core.PipelineConfig{}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sVal := 1 + (g+i)%4
				var err error
				if g%2 == 0 {
					_, _, err = lineGraph(svc, context.Background(), "rand", sVal, cfg)
				} else {
					_, _, err = cliqueGraph(svc, context.Background(), "rand", sVal, cfg)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Every distinct projection must equal its direct computation.
	for sVal := 1; sVal <= 4; sVal++ {
		res, _, err := lineGraph(svc, context.Background(), "rand", sVal, cfg)
		if err != nil {
			t.Fatal(err)
		}
		direct, _ := core.Run(context.Background(), h, sVal, cfg)
		if !reflect.DeepEqual(res.Graph.Edges(), direct.Graph.Edges()) {
			t.Fatalf("s=%d: cached line graph differs from direct run", sVal)
		}
		dres, _, err := cliqueGraph(svc, context.Background(), "rand", sVal, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ddirect, _ := core.Run(context.Background(), h.Dual(), sVal, cfg)
		if !reflect.DeepEqual(dres.Graph.Edges(), ddirect.Graph.Edges()) {
			t.Fatalf("s=%d: cached clique graph differs from direct dual run", sVal)
		}
	}
}

func TestWarmupSeedsCacheIdenticalToDirect(t *testing.T) {
	h := randomHypergraph(3, 200, 150, 5)
	svc := New(Config{})
	svc.Add("rand", h)
	cfg := core.PipelineConfig{}

	sweep := []int{1, 2, 3, 4}
	computed, hot, err := svc.Warmup(context.Background(), "rand", false, sweep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if computed != len(sweep) || hot != 0 {
		t.Fatalf("warmup computed %d results (hot %d), want %d, 0", computed, hot, len(sweep))
	}
	for _, sVal := range sweep {
		res, cached, err := lineGraph(svc, context.Background(), "rand", sVal, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !cached {
			t.Fatalf("s=%d: query after warmup must be a cache hit", sVal)
		}
		direct, _ := core.Run(context.Background(), h, sVal, cfg)
		if !reflect.DeepEqual(res.Graph.Edges(), direct.Graph.Edges()) {
			t.Fatalf("s=%d: warmed ensemble edges differ from direct Algorithm 2 run", sVal)
		}
		if !reflect.DeepEqual(res.HyperedgeIDs, direct.HyperedgeIDs) {
			t.Fatalf("s=%d: warmed hyperedge IDs differ from direct run", sVal)
		}
	}
	// A second warmup finds everything hot.
	if computed, hot, err = svc.Warmup(context.Background(), "rand", false, sweep, cfg); err != nil || computed != 0 || hot != len(sweep) {
		t.Fatalf("second warmup: computed=%d hot=%d err=%v, want 0, %d, nil", computed, hot, err, len(sweep))
	}
}

// TestWarmupAlgorithm1RoutedPerS: a short-circuit Algorithm 1 warmup
// (a distinct output class) flows through the same batch path as
// everything else — the planner, not the serving layer, decides it must
// run per s.
func TestWarmupAlgorithm1RoutedPerS(t *testing.T) {
	h := paperExample()
	svc := New(Config{})
	svc.Add("h", h)
	cfg := core.PipelineConfig{Core: core.Config{Algorithm: core.AlgoSetIntersection}}
	if _, _, err := svc.Warmup(context.Background(), "h", false, []int{1, 2}, cfg); err != nil {
		t.Fatal(err)
	}
	for _, sVal := range []int{1, 2} {
		res, cached, err := lineGraph(svc, context.Background(), "h", sVal, cfg)
		if err != nil || !cached {
			t.Fatalf("s=%d: want warmed hit, cached=%v err=%v", sVal, cached, err)
		}
		direct, _ := core.Run(context.Background(), h, sVal, cfg)
		if !reflect.DeepEqual(res.Graph.Edges(), direct.Graph.Edges()) {
			t.Fatalf("s=%d: Algorithm 1 warmup differs from direct run", sVal)
		}
	}
}

func TestDatasetReplacementInvalidates(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())
	r1, _, err := lineGraph(svc, context.Background(), "h", 2, core.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Replace under the same name: the version bump must force a fresh
	// computation.
	svc.Add("h", hg.FromEdgeSlices([][]uint32{{0, 1, 2}, {0, 1, 2}}, 3))
	r2, cached, err := lineGraph(svc, context.Background(), "h", 2, core.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cached || r1 == r2 {
		t.Fatal("replaced dataset must not serve the old cached result")
	}
	if r2.Graph.NumEdges() != 1 {
		t.Fatalf("want 1 edge from replacement dataset, got %d", r2.Graph.NumEdges())
	}
}

func TestServiceLoadByExtension(t *testing.T) {
	dir := t.TempDir()
	h := paperExample()
	for _, name := range []string{"h.hgr", "h.pairs", "h.bin"} {
		path := filepath.Join(dir, name)
		if err := hgio.SaveFile(path, h); err != nil {
			t.Fatal(err)
		}
		svc := New(Config{})
		if err := svc.Load("h", path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := svc.Hypergraph("h")
		if err != nil {
			t.Fatal(err)
		}
		if got.NumEdges() != h.NumEdges() || got.Incidences() != h.Incidences() {
			t.Fatalf("%s: loaded dataset differs", name)
		}
	}
}

func TestDatasetsListing(t *testing.T) {
	svc := New(Config{})
	svc.Add("b", paperExample())
	svc.Add("a", paperExample())
	list := svc.Datasets()
	if len(list) != 2 || list[0].Name != "a" || list[1].Name != "b" {
		t.Fatalf("want [a b], got %+v", list)
	}
	if !svc.Remove("a") || svc.Remove("a") {
		t.Fatal("remove semantics broken")
	}
	if len(svc.Datasets()) != 1 {
		t.Fatal("dataset not removed")
	}
}
