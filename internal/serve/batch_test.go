package serve

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"hyperline/internal/core"
)

// TestBatchFillsPerSCache: one batched request computes every missing s
// in a single planner pass and seeds the per-s cache, so later single-s
// queries and repeated batches hit.
func TestBatchFillsPerSCache(t *testing.T) {
	h := randomHypergraph(21, 250, 180, 5)
	svc := New(Config{})
	svc.Add("rand", h)
	cfg := core.PipelineConfig{}
	sweep := []int{1, 2, 3, 4}

	results, cached, err := lineGraphs(svc, context.Background(), "rand", sweep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(sweep) {
		t.Fatalf("batch returned %d results, want %d", len(results), len(sweep))
	}
	for _, sVal := range sweep {
		if cached[sVal] {
			t.Fatalf("s=%d: cold batch must not report cached", sVal)
		}
		direct, _ := core.Run(context.Background(), h, sVal, cfg)
		if !reflect.DeepEqual(results[sVal].Graph.Edges(), direct.Graph.Edges()) {
			t.Fatalf("s=%d: batch edges differ from direct run", sVal)
		}
		// Single-s queries must hit the entries the batch seeded.
		res, hit, err := lineGraph(svc, context.Background(), "rand", sVal, cfg)
		if err != nil || !hit {
			t.Fatalf("s=%d: single query after batch: hit=%v err=%v", sVal, hit, err)
		}
		if res != results[sVal] {
			t.Fatalf("s=%d: single query returned a different pointer than the batch", sVal)
		}
	}

	// A partially-overlapping batch only computes the new s values.
	results2, cached2, err := lineGraphs(svc, context.Background(), "rand", []int{2, 3, 5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !cached2[2] || !cached2[3] || cached2[5] {
		t.Fatalf("overlap batch cached flags: %v", cached2)
	}
	if results2[2] != results[2] {
		t.Fatal("overlapping batch must reuse the cached pointer")
	}
}

// TestBatchDualOrientation: a clique sweep batches against the dual and
// matches direct dual runs.
func TestBatchDualOrientation(t *testing.T) {
	h := randomHypergraph(23, 150, 120, 5)
	svc := New(Config{})
	svc.Add("rand", h)
	sweep := []int{1, 2}
	results, _, err := cliqueGraphs(svc, context.Background(), "rand", sweep, core.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sVal := range sweep {
		direct, _ := core.Run(context.Background(), h.Dual(), sVal, core.PipelineConfig{})
		if !reflect.DeepEqual(results[sVal].Graph.Edges(), direct.Graph.Edges()) {
			t.Fatalf("s=%d: batched clique graph differs from direct dual run", sVal)
		}
	}
}

// TestBatchRejectsBadInput covers the validation surface.
func TestBatchRejectsBadInput(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())
	if _, _, err := lineGraphs(svc, context.Background(), "h", nil, core.PipelineConfig{}); err == nil {
		t.Fatal("want error for empty batch")
	}
	if _, _, err := lineGraphs(svc, context.Background(), "h", []int{2, 0}, core.PipelineConfig{}); err == nil {
		t.Fatal("want error for s=0 in batch")
	}
	if _, _, err := lineGraphs(svc, context.Background(), "nope", []int{2}, core.PipelineConfig{}); err == nil {
		t.Fatal("want error for unknown dataset")
	}
}

// TestOutputEquivalentConfigsShareEntries is the fingerprint
// canonicalization acceptance test at the service level: requests
// pinning any exact-weight strategy — Algorithm 2, the ensemble,
// SpGEMM, or Algorithm 1 in exact mode — share one cache entry with the
// planner default, so SpGEMM results are cacheable (and servable) under
// the same fingerprint scheme.
func TestOutputEquivalentConfigsShareEntries(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())
	base, _, err := lineGraph(svc, context.Background(), "h", 2, core.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	equivalent := []core.PipelineConfig{
		{Core: core.Config{Algorithm: core.AlgoHashmap}},
		{Core: core.Config{Algorithm: core.AlgoEnsemble}},
		{Core: core.Config{Algorithm: core.AlgoSpGEMM}},
		{Core: core.Config{Algorithm: core.AlgoSetIntersection, DisableShortCircuit: true}},
	}
	for _, cfg := range equivalent {
		res, hit, err := lineGraph(svc, context.Background(), "h", 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !hit || res != base {
			t.Fatalf("algorithm %s: output-equivalent request must share the cache entry (hit=%v)",
				cfg.Core.Algorithm, hit)
		}
	}
	// Short-circuited Algorithm 1 is a different output class and must
	// not be served the exact-class entry.
	sc, hit, err := lineGraph(svc, context.Background(), "h", 2, core.PipelineConfig{
		Core: core.Config{Algorithm: core.AlgoSetIntersection},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit || sc == base {
		t.Fatal("short-circuit Algorithm 1 must compute its own entry")
	}
	if st := svc.CacheStats(); st.Entries != 2 {
		t.Fatalf("want exactly 2 cache entries (exact + shortcircuit), got %d", st.Entries)
	}
}

// TestSpGEMMWarmupSeedsDefaultQueries: a warmup pinned to SpGEMM fills
// the exact-class keys, so default (planner) queries hit it.
func TestSpGEMMWarmupSeedsDefaultQueries(t *testing.T) {
	h := randomHypergraph(29, 120, 100, 5)
	svc := New(Config{})
	svc.Add("rand", h)
	spgemmCfg := core.PipelineConfig{Core: core.Config{Algorithm: core.AlgoSpGEMM}}
	if _, _, err := svc.Warmup(context.Background(), "rand", false, []int{1, 2, 3}, spgemmCfg); err != nil {
		t.Fatal(err)
	}
	for _, sVal := range []int{1, 2, 3} {
		res, hit, err := lineGraph(svc, context.Background(), "rand", sVal, core.PipelineConfig{})
		if err != nil || !hit {
			t.Fatalf("s=%d: default query after SpGEMM warmup: hit=%v err=%v", sVal, hit, err)
		}
		direct, _ := core.Run(context.Background(), h, sVal, core.PipelineConfig{})
		if !reflect.DeepEqual(res.Graph.Edges(), direct.Graph.Edges()) {
			t.Fatalf("s=%d: SpGEMM-warmed edges differ from direct run", sVal)
		}
	}
}

// TestConcurrentIdenticalBatches: concurrent identical batch requests
// share one computation via singleflight and agree on result pointers.
// Run under -race in CI.
func TestConcurrentIdenticalBatches(t *testing.T) {
	h := randomHypergraph(37, 300, 220, 6)
	svc := New(Config{})
	svc.Add("rand", h)
	sweep := []int{1, 2, 3}

	const n = 16
	out := make([]map[int]*core.PipelineResult, n)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			results, _, err := lineGraphs(svc, context.Background(), "rand", sweep, core.PipelineConfig{})
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = results
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 1; i < n; i++ {
		for _, sVal := range sweep {
			if out[i][sVal] != out[0][sVal] {
				t.Fatalf("goroutine %d s=%d: different result pointer", i, sVal)
			}
		}
	}
	if st := svc.CacheStats(); st.Entries != len(sweep) {
		t.Fatalf("want %d cache entries, got %d", len(sweep), st.Entries)
	}
}
