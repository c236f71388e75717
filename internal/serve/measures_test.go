package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/gen"
	"hyperline/internal/hg"
)

// TestMeasureServedFromCache is the acceptance check for the measures
// engine: on a warmed dataset a repeated measure request is served
// from the measure cache without recomputing the measure, proved by
// the instrumented compute counter.
func TestMeasureServedFromCache(t *testing.T) {
	svc := New(Config{})
	svc.Add("paper", paperExample())

	first, err := measureAt(svc, context.Background(), "paper", false, 2, core.PipelineConfig{}, "components", nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("cold measure must not report cached")
	}
	if got := svc.MeasureCacheStats().Computes; got != 1 {
		t.Fatalf("cold measure ran %d computes, want 1", got)
	}
	second, err := measureAt(svc, context.Background(), "paper", false, 2, core.PipelineConfig{}, "components", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || !second.ProjectionCached {
		t.Fatalf("warm measure flags: %+v", second)
	}
	if second.MeasureEntry != first.MeasureEntry {
		t.Fatal("warm measure must return the pointer-identical cached entry")
	}
	if got := svc.MeasureCacheStats().Computes; got != 1 {
		t.Fatalf("warm measure recomputed (computes=%d, want 1)", got)
	}
	// Execution knobs (workers) share the entry: the fingerprint
	// excludes them and measures are worker-deterministic.
	cfg := core.PipelineConfig{Core: core.Config{Workers: 3}}
	third, err := measureAt(svc, context.Background(), "paper", false, 2, cfg, "components", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached || third.MeasureEntry != first.MeasureEntry {
		t.Fatal("workers-only config change must hit the same measure entry")
	}
}

// TestMeasureCacheRace hammers the same and different measure keys
// from 32 goroutines under -race: every result for one key must be the
// pointer-identical entry, cached flags must be truthful (at most one
// non-cached response per key), and the compute counter must equal the
// number of distinct keys.
func TestMeasureCacheRace(t *testing.T) {
	svc := New(Config{})
	svc.Add("g", gen.Community(gen.CommunityConfig{
		Seed: 3, NumVertices: 50, NumCommunities: 4,
		MeanCommunitySize: 8, EdgesPerCommunity: 5,
	}))

	type query struct {
		s       int
		measure string
	}
	queries := []query{
		{1, "components"}, {2, "components"}, {2, "harmonic"}, {3, "clustering"},
	}
	const goroutines = 32
	results := make([]*MeasureResult, goroutines)
	qIdx := make([]int, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		qIdx[i] = i % len(queries)
		go func(i int) {
			defer wg.Done()
			q := queries[qIdx[i]]
			res, err := measureAt(svc, context.Background(), "g", false, q.s, core.PipelineConfig{}, q.measure, nil)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Pointer identity per key, and truthful cached flags: at most one
	// response per key may claim to have computed (the others shared
	// the flight or hit the cache).
	for qi := range queries {
		var entry *MeasureEntry
		uncached := 0
		for i := 0; i < goroutines; i++ {
			if qIdx[i] != qi {
				continue
			}
			if entry == nil {
				entry = results[i].MeasureEntry
			} else if results[i].MeasureEntry != entry {
				t.Fatalf("query %d returned two distinct entries", qi)
			}
			if !results[i].Cached {
				uncached++
			}
		}
		if uncached > 1 {
			t.Fatalf("query %d: %d responses claim to have computed", qi, uncached)
		}
	}
	if got := svc.MeasureCacheStats().Computes; got != int64(len(queries)) {
		t.Fatalf("computes = %d, want %d (one per distinct key)", got, len(queries))
	}
	// A second concurrent round must be all hits: no new computes.
	var wg2 sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg2.Add(1)
		go func(i int) {
			defer wg2.Done()
			q := queries[i%len(queries)]
			res, err := measureAt(svc, context.Background(), "g", false, q.s, core.PipelineConfig{}, q.measure, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if !res.Cached {
				t.Errorf("second round query %d not cached", i%len(queries))
			}
		}(i)
	}
	wg2.Wait()
	if got := svc.MeasureCacheStats().Computes; got != int64(len(queries)) {
		t.Fatalf("second round recomputed: computes = %d, want %d", got, len(queries))
	}
}

// TestMeasureCacheNeverStale replaces a dataset under churn that keeps
// the tiny LRU at capacity and asserts the cache never serves a value
// computed on a previous dataset version.
func TestMeasureCacheNeverStale(t *testing.T) {
	svc := New(Config{MeasureCacheEntries: 2})
	// v1: the paper example — 1-line graph has 1 component.
	svc.Add("d", paperExample())
	v1, err := measureAt(svc, context.Background(), "d", false, 1, core.PipelineConfig{}, "components", nil)
	if err != nil {
		t.Fatal(err)
	}
	if *v1.Value.Scalar != 1 {
		t.Fatalf("v1 components = %v, want 1", *v1.Value.Scalar)
	}
	// Fill the 2-entry LRU with other keys so v1's entry is evicted.
	if _, err := measureAt(svc, context.Background(), "d", false, 1, core.PipelineConfig{}, "diameter", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := measureAt(svc, context.Background(), "d", false, 1, core.PipelineConfig{}, "clustering-global", nil); err != nil {
		t.Fatal(err)
	}
	// v2: two disjoint cliques — 1-line graph has 2 components.
	svc.Add("d", exampleTwoComponents())
	v2, err := measureAt(svc, context.Background(), "d", false, 1, core.PipelineConfig{}, "components", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Cached {
		t.Fatal("replaced dataset must not serve the old version's value")
	}
	if *v2.Value.Scalar != 2 {
		t.Fatalf("v2 components = %v, want 2", *v2.Value.Scalar)
	}
	// Churn the full LRU across both versions a few times: every
	// response must match its version's ground truth.
	for i := 0; i < 5; i++ {
		got, err := measureAt(svc, context.Background(), "d", false, 1, core.PipelineConfig{}, "components", nil)
		if err != nil {
			t.Fatal(err)
		}
		if *got.Value.Scalar != 2 {
			t.Fatalf("round %d served stale components = %v", i, *got.Value.Scalar)
		}
		if _, err := measureAt(svc, context.Background(), "d", false, 1, core.PipelineConfig{}, "diameter", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := measureAt(svc, context.Background(), "d", false, 1, core.PipelineConfig{}, "clustering-global", nil); err != nil {
			t.Fatal(err)
		}
	}
	stats := svc.MeasureCacheStats()
	if stats.Entries > 2 {
		t.Fatalf("LRU over capacity: %+v", stats)
	}
	if stats.Evictions == 0 {
		t.Fatalf("churn should have evicted entries: %+v", stats)
	}
}

// exampleTwoComponents returns a hypergraph whose 1-line graph has two
// components: two hyperedge pairs sharing vertices, no overlap across
// pairs.
func exampleTwoComponents() *hg.Hypergraph {
	return hg.FromEdgeSlices([][]uint32{
		{0, 1}, {1, 2},
		{5, 6}, {6, 7},
	}, 8)
}

// TestMeasureSweepBatching checks the batched sweep path: one call
// fills every s, results are ordered by ascending distinct s, warm
// entries are honored, and a repeat sweep recomputes nothing.
func TestMeasureSweepBatching(t *testing.T) {
	svc := New(Config{})
	svc.Add("paper", paperExample())

	// Warm s=2 alone first.
	if _, err := measureAt(svc, context.Background(), "paper", false, 2, core.PipelineConfig{}, "components", nil); err != nil {
		t.Fatal(err)
	}
	results, err := measureSweep(svc, context.Background(), "paper", false, []int{3, 1, 2, 2}, core.PipelineConfig{}, "components", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("sweep returned %d results, want 3 distinct", len(results))
	}
	for i, wantS := range []int{1, 2, 3} {
		if results[i].S != wantS {
			t.Fatalf("result %d has s=%d, want %d", i, results[i].S, wantS)
		}
	}
	if !results[1].Cached {
		t.Fatal("pre-warmed s=2 must be served from the measure cache")
	}
	if results[0].Cached || results[2].Cached {
		t.Fatal("cold sweep members must not report cached")
	}
	computes := svc.MeasureCacheStats().Computes
	if computes != 3 {
		t.Fatalf("computes = %d, want 3 (s=2 warm + s=1,3 cold)", computes)
	}
	again, err := measureSweep(svc, context.Background(), "paper", false, []int{1, 2, 3}, core.PipelineConfig{}, "components", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range again {
		if !r.Cached {
			t.Fatalf("repeat sweep s=%d not cached", r.S)
		}
	}
	if got := svc.MeasureCacheStats().Computes; got != computes {
		t.Fatalf("repeat sweep recomputed: %d -> %d", computes, got)
	}
}

// TestMeasureErrors covers the failure paths: unknown measure (the
// error lists the registry), unknown dataset, bad params.
func TestMeasureErrors(t *testing.T) {
	svc := New(Config{})
	svc.Add("paper", paperExample())
	if _, err := measureAt(svc, context.Background(), "paper", false, 2, core.PipelineConfig{}, "nope", nil); err == nil ||
		!strings.Contains(err.Error(), "components") {
		t.Fatalf("unknown measure error must list the registry, got %v", err)
	}
	if _, err := measureAt(svc, context.Background(), "ghost", false, 2, core.PipelineConfig{}, "components", nil); err == nil ||
		!strings.Contains(err.Error(), "unknown dataset") {
		t.Fatalf("unknown dataset error, got %v", err)
	}
	if _, err := measureAt(svc, context.Background(), "paper", false, 2, core.PipelineConfig{}, "distances", nil); err == nil {
		t.Fatal("distances without source must fail")
	}
	// A failed compute (absent source hyperedge) must not pollute the
	// cache or the compute counter's meaning.
	before := svc.MeasureCacheStats()
	if _, err := measureAt(svc, context.Background(), "paper", false, 2, core.PipelineConfig{},
		"distances", map[string]string{"source": "3"}); err == nil {
		t.Fatal("absent source hyperedge must fail")
	}
	after := svc.MeasureCacheStats()
	if after.Entries != before.Entries {
		t.Fatalf("failed compute cached an entry: %+v -> %+v", before, after)
	}
}

// TestHTTPMeasuresEndpoint exercises the registry listing and a
// measure sweep over POST /v2/query end to end.
func TestHTTPMeasuresEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)

	var infos []map[string]any
	do(t, http.MethodGet, ts.URL+"/v1/measures", nil, http.StatusOK, &infos)
	names := map[string]bool{}
	for _, info := range infos {
		names[fmt.Sprint(info["name"])] = true
	}
	for _, want := range []string{"components", "betweenness", "pagerank", "eccentricity"} {
		if !names[want] {
			t.Fatalf("/v1/measures missing %s: %v", want, names)
		}
	}

	sweep := postQuery(t, ts, `{"dataset":"paper","s":"1:3","measure":"components"}`, http.StatusOK)
	if len(sweep.Results) != 3 || sweep.Measure != "components" {
		t.Fatalf("sweep response: %+v", sweep)
	}
	for i, r := range sweep.Results {
		if r.S != i+1 || r.Value == nil || r.Value.Scalar == nil {
			t.Fatalf("sweep result %d: %+v", i, r)
		}
	}
	// Repeat: all cached.
	sweep = postQuery(t, ts, `{"dataset":"paper","s":"1:3","measure":"components"}`, http.StatusOK)
	for _, r := range sweep.Results {
		if !r.Cached {
			t.Fatalf("repeat sweep s=%d not cached", r.S)
		}
	}
	// Failure modes.
	postQuery(t, ts, `{"dataset":"paper","s":"1:3","measure":"nope"}`, http.StatusBadRequest)
	postQuery(t, ts, `{"dataset":"paper","measure":"components"}`, http.StatusBadRequest)
	postQuery(t, ts, `{"dataset":"ghost","s":"1","measure":"components"}`, http.StatusNotFound)
	// Parameterized measure over HTTP.
	dist := postQuery(t, ts, `{"dataset":"paper","s":"2","measure":"distances","params":{"source":"0"}}`, http.StatusOK)
	if len(dist.Results) != 1 || dist.Results[0].Value == nil || len(dist.Results[0].Value.Ints) == 0 {
		t.Fatalf("distances sweep: %+v", dist)
	}
}

// TestHTTPCentralityKinds pins the centrality measures' registry
// wiring over HTTP: every kind answers, a misspelled one is a 400
// listing the registered measures — never a silent default — and a
// repeat is served from the measure cache.
func TestHTTPCentralityKinds(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)
	for _, kind := range []string{"betweenness", "closeness", "harmonic", "pagerank", "eccentricity"} {
		got := postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"`+kind+`"}`, http.StatusOK).Results[0]
		if got.Value == nil || len(got.Value.Scores)+len(got.Value.Ints) != 3 {
			t.Fatalf("centrality %s: %+v", kind, got)
		}
	}
	var errBody struct {
		Error string `json:"error"`
	}
	do(t, http.MethodPost, ts.URL+"/v2/query", strings.NewReader(`{"dataset":"paper","s":[2],"measure":"closness"}`),
		http.StatusBadRequest, &errBody)
	for _, want := range []string{"closeness", "eccentricity", "pagerank"} {
		if !strings.Contains(errBody.Error, want) {
			t.Fatalf("unknown-measure error must list %q: %s", want, errBody.Error)
		}
	}
	if got := postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"closeness"}`, http.StatusOK).Results[0]; !got.Cached {
		t.Fatal("repeated centrality must be served from the measure cache")
	}
}
