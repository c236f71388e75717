package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/gen"
	"hyperline/internal/hg"
)

// Fault-injection suite: each test drives one failure mode the serving
// layer claims to survive — dataset replacement mid-flight, cancel
// storms, cache churn under a pathologically small LRU, and shutdown
// while shedding — and asserts the specific invariant that failure mode
// threatens (version pinning, goroutine hygiene, truthful counters,
// clean drain). Run under -race these are also the memory-safety tests
// for the admission/singleflight/registry interleavings.

// mediumHypergraph is big enough that a cold pipeline run takes tens
// of milliseconds (so a fault can land mid-flight) but completes fast
// enough to run to completion repeatedly in a unit test.
func mediumHypergraph() *hg.Hypergraph {
	return gen.Community(gen.CommunityConfig{
		Seed: 7, NumVertices: 1200, NumCommunities: 25,
		MeanCommunitySize: 30, EdgesPerCommunity: 30, Background: 300,
	})
}

// waitGoroutines waits for the goroutine count to settle back near the
// baseline, failing the test if it never does.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, n)
	}
}

// TestFaultReplaceDatasetMidFlight: replacing a dataset while a query
// runs must neither break the in-flight query (its snapshot is pinned)
// nor leak the old version into later queries.
func TestFaultReplaceDatasetMidFlight(t *testing.T) {
	old := mediumHypergraph()
	svc := New(Config{})
	svc.Add("d", old)

	// Reference answers for both versions, computed on isolated services.
	ref := func(h *hg.Hypergraph) (nodes, edges int) {
		s := New(Config{})
		s.Add("ref", h)
		res, _, err := lineGraph(s, context.Background(), "ref", 2, core.PipelineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Graph.NumNodes(), res.Graph.NumEdges()
	}
	oldNodes, oldEdges := ref(old)
	newNodes, newEdges := ref(paperExample())
	if oldNodes == newNodes && oldEdges == newEdges {
		t.Fatal("test needs two distinguishable dataset versions")
	}

	type outcome struct {
		nodes, edges int
		err          error
	}
	res := make(chan outcome, 1)
	go func() {
		r, _, err := lineGraph(svc, context.Background(), "d", 2, core.PipelineConfig{})
		if err != nil {
			res <- outcome{err: err}
			return
		}
		res <- outcome{nodes: r.Graph.NumNodes(), edges: r.Graph.NumEdges()}
	}()
	time.Sleep(10 * time.Millisecond) // land the replacement mid-flight
	svc.Add("d", paperExample())

	got := <-res
	if got.err != nil {
		t.Fatalf("in-flight query across a replacement failed: %v", got.err)
	}
	if got.nodes != oldNodes || got.edges != oldEdges {
		t.Fatalf("in-flight query answered (%d,%d); its pinned snapshot says (%d,%d)",
			got.nodes, got.edges, oldNodes, oldEdges)
	}

	// Post-replacement queries must see only the new version — a cache
	// or flight keyed without the version would serve the stale graph.
	r, _, err := lineGraph(svc, context.Background(), "d", 2, core.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Graph.NumNodes() != newNodes || r.Graph.NumEdges() != newEdges {
		t.Fatalf("post-replacement query answered (%d,%d), want the new version's (%d,%d)",
			r.Graph.NumNodes(), r.Graph.NumEdges(), newNodes, newEdges)
	}
}

// TestFaultCancelStorm: a storm of identical queries that all cancel
// must abort the shared flight, leak no goroutines, charge no computes,
// and leave the key usable for a fresh caller.
func TestFaultCancelStorm(t *testing.T) {
	svc := slowGraph()
	baseline := runtime.NumGoroutine()
	computes0 := svc.projectionComputes.Load()

	const storm = 24
	var wg sync.WaitGroup
	errs := make([]error, storm)
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(10+i)*time.Millisecond)
			defer cancel()
			_, _, errs[i] = lineGraph(svc, ctx, "slow", 2, core.PipelineConfig{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			t.Fatalf("storm caller %d: got %v, want a context error", i, err)
		}
	}
	waitGoroutines(t, baseline)
	if got := svc.projectionComputes.Load(); got != computes0 {
		t.Fatalf("aborted storm charged %d computes; cancelled load must not look like served load", got-computes0)
	}

	// The flight key must be free: a live caller gets a fresh, correct
	// run (bounded only by the test timeout).
	r, cached, err := lineGraph(svc, context.Background(), "slow", 2, core.PipelineConfig{})
	if err != nil {
		t.Fatalf("fresh query after the storm: %v", err)
	}
	if cached {
		t.Fatal("fresh query claimed a cache hit after every earlier run aborted")
	}
	if r.Graph.NumNodes() == 0 {
		t.Fatal("fresh query returned an empty projection")
	}
	if got := svc.projectionComputes.Load(); got != computes0+1 {
		t.Fatalf("fresh query charged %d computes, want exactly 1", got-computes0)
	}
}

// TestFaultTinyLRUChurn: concurrent sweeps against a 2-entry projection
// cache force constant eviction; every answer must still be correct and
// the hit/miss/eviction books must stay coherent.
func TestFaultTinyLRUChurn(t *testing.T) {
	svc := New(Config{CacheEntries: 2})
	svc.Add("p", paperExample())

	// Reference shapes per s from an unconstrained service.
	type shape struct{ nodes, edges int }
	want := map[int]shape{}
	refSvc := New(Config{})
	refSvc.Add("p", paperExample())
	for s := 1; s <= 4; s++ {
		r, _, err := lineGraph(refSvc, context.Background(), "p", s, core.PipelineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want[s] = shape{r.Graph.NumNodes(), r.Graph.NumEdges()}
	}

	const workers = 8
	const rounds = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := 1 + (w+i)%4
				r, _, err := lineGraph(svc, context.Background(), "p", s, core.PipelineConfig{})
				if err != nil {
					t.Errorf("churn query s=%d: %v", s, err)
					return
				}
				if got := (shape{r.Graph.NumNodes(), r.Graph.NumEdges()}); got != want[s] {
					t.Errorf("churn query s=%d answered %+v, want %+v", s, got, want[s])
					return
				}
			}
		}(w)
	}
	wg.Wait()

	cs := svc.CacheStats()
	if cs.Entries > 2 {
		t.Fatalf("cache holds %d entries over its capacity 2", cs.Entries)
	}
	if cs.Evictions == 0 {
		t.Fatal("4 keys through a 2-entry cache must evict")
	}
	computes := svc.projectionComputes.Load()
	if computes < 4 {
		t.Fatalf("only %d computes for 4 distinct s values", computes)
	}
	// Truthful counters: every answer was either a hit or backed by a
	// compute (directly or via a shared flight); computes can never
	// exceed misses.
	if computes > cs.Misses {
		t.Fatalf("computes %d > misses %d: the compute counter is inventing work", computes, cs.Misses)
	}
}

// TestFaultShutdownDuringShed: closing the server while admission is
// actively queueing and shedding must drain cleanly — no hang, no
// panic, controller back to zero occupancy.
func TestFaultShutdownDuringShed(t *testing.T) {
	svc := New(Config{MaxInflight: 1, ShedCostBudget: 2, MaxQueue: 2})
	svc.Add("slow", gen.Community(gen.CommunityConfig{
		Seed: 31, NumVertices: 4000, NumCommunities: 70,
		MeanCommunitySize: 45, EdgesPerCommunity: 50, Background: 1000,
	}))
	ts := httptest.NewServer(NewHandler(svc))

	const clients = 16
	statuses := make(chan int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct s per client: identical queries would collapse
			// into one singleflight flight and never contend.
			body, _ := json.Marshal(map[string]any{"dataset": "slow", "s": []int{2 + i}})
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v2/query", bytes.NewReader(body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				statuses <- -1 // transport error: cancelled or connection severed
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}(i)
	}

	// Close only once shedding is demonstrably underway (a fixed sleep
	// races the clients' connection setup, especially under -race).
	shedDeadline := time.Now().Add(3 * time.Second)
	for svc.AdmissionStats().ShedInteractive == 0 {
		if time.Now().After(shedDeadline) {
			t.Fatal("flood never saturated admission")
		}
		time.Sleep(5 * time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { ts.Close(); close(closed) }()
	wg.Wait()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("server close hung with shed traffic in flight")
	}

	var sheds int
	for i := 0; i < clients; i++ {
		if <-statuses == http.StatusTooManyRequests {
			sheds++
		}
	}
	if sheds == 0 {
		t.Fatal("flood against MaxInflight=1 produced no 429s")
	}
	// The controller must drain to zero even though clients vanished in
	// every possible state (queued, admitted, shed, mid-response).
	deadline := time.Now().Add(3 * time.Second)
	for {
		as := svc.AdmissionStats()
		if as.InflightRequests == 0 && as.InflightCost == 0 && as.QueueLength == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission not drained after shutdown: %+v", as)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
