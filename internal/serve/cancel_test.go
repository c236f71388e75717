package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/gen"
	"hyperline/internal/hg"
)

// slowGraph is dense enough that a cold pipeline run takes well over
// the timeouts the tests below use, so a cancellation reliably lands
// mid-computation.
func slowGraph() *Service {
	svc := New(Config{})
	svc.Add("slow", gen.Community(gen.CommunityConfig{
		Seed: 31, NumVertices: 4000, NumCommunities: 70,
		MeanCommunitySize: 45, EdgesPerCommunity: 50, Background: 1000,
	}))
	return svc
}

// TestSingleflightLeaderDetach is the detach contract under load: 32
// concurrent callers share one flight, half of them cancel mid-flight,
// and the computation must (a) run exactly once, (b) keep running for
// the survivors — its flight context never trips — and (c) deliver the
// value to every survivor while every canceller gets its own ctx.Err().
func TestSingleflightLeaderDetach(t *testing.T) {
	var sf singleflight
	var calls atomic.Int32
	var flightCancelled atomic.Bool
	gate := make(chan struct{})

	const n = 32
	ctxs := make([]context.Context, n)
	cancels := make([]context.CancelFunc, n)
	for i := 0; i < n; i++ {
		ctxs[i], cancels[i] = context.WithCancel(context.Background())
		defer cancels[i]()
	}

	var started sync.WaitGroup
	var wg sync.WaitGroup
	errs := make([]error, n)
	vals := make([]any, n)
	for i := 0; i < n; i++ {
		started.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			vals[i], errs[i], _ = sf.Do(ctxs[i], "key", func(fctx context.Context) (any, error) {
				calls.Add(1)
				<-gate
				flightCancelled.Store(fctx.Err() != nil)
				return "value", nil
			})
		}(i)
	}
	started.Wait()
	time.Sleep(50 * time.Millisecond) // let every caller pile onto the flight

	// Half the callers disconnect.
	for i := 0; i < n/2; i++ {
		cancels[i]()
	}
	time.Sleep(50 * time.Millisecond) // let the cancellations land
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	if flightCancelled.Load() {
		t.Fatal("flight context tripped although half the waiters survived")
	}
	for i := 0; i < n/2; i++ {
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("cancelled caller %d got %v, want context.Canceled", i, errs[i])
		}
	}
	for i := n / 2; i < n; i++ {
		if errs[i] != nil || vals[i] != "value" {
			t.Fatalf("surviving caller %d got (%v, %v)", i, vals[i], errs[i])
		}
	}
}

// TestSingleflightLastWaiterCancelAborts: when every caller cancels,
// the flight's context must trip (aborting the computation), and a
// later caller with a live context must start a fresh flight instead
// of inheriting the dead one.
func TestSingleflightLastWaiterCancelAborts(t *testing.T) {
	var sf singleflight
	var calls atomic.Int32
	flightDone := make(chan error, 1)

	ctx, cancel := context.WithCancel(context.Background())
	_, err, _ := func() (any, error, bool) {
		go func() { time.Sleep(30 * time.Millisecond); cancel() }()
		return sf.Do(ctx, "key", func(fctx context.Context) (any, error) {
			calls.Add(1)
			select {
			case <-fctx.Done():
				flightDone <- fctx.Err()
				return nil, fctx.Err()
			case <-time.After(5 * time.Second):
				flightDone <- nil
				return "never-cancelled", nil
			}
		})
	}()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("caller got %v, want context.Canceled", err)
	}
	select {
	case ferr := <-flightDone:
		if !errors.Is(ferr, context.Canceled) {
			t.Fatalf("flight saw %v, want context.Canceled after the last waiter left", ferr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flight never observed the last-waiter cancellation")
	}

	// The key must be free again for a live caller.
	v, err, _ := sf.Do(context.Background(), "key", func(context.Context) (any, error) {
		calls.Add(1)
		return "fresh", nil
	})
	if err != nil || v != "fresh" {
		t.Fatalf("fresh flight got (%v, %v)", v, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("fn ran %d times, want 2 (aborted + fresh)", got)
	}
}

// TestProjectionCancelReturnsCtxErr: a service-level projection call
// whose context expires mid-pipeline surfaces the context error, and
// repeated cancelled calls leak no goroutines.
func TestProjectionCancelReturnsCtxErr(t *testing.T) {
	svc := slowGraph()
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		_, _, err := lineGraph(svc, ctx, "slow", 2, core.PipelineConfig{})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("run %d: got %v, want context.DeadlineExceeded", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestCancelledMeasureDoesNotCount: requests that die before their
// measure evaluation starts must not bump the compute counter — the
// counter is the capacity-planning ground truth, and phantom computes
// would make cancelled load look like served load.
func TestCancelledMeasureDoesNotCount(t *testing.T) {
	svc := slowGraph()

	// Dead on arrival: no flight, no projection, no compute.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := measureAt(svc, dead, "slow", false, 2, core.PipelineConfig{}, "components", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Cancelled during the projection batch: the measure stage is
	// never reached.
	ctx, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	if _, err := measureAt(svc, ctx, "slow", false, 2, core.PipelineConfig{}, "components", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if got := svc.MeasureCacheStats().Computes; got != 0 {
		t.Fatalf("cancelled requests bumped the compute counter to %d", got)
	}

	// Sanity: a live request does count.
	if _, err := measureAt(svc, context.Background(), "slow", false, 2, core.PipelineConfig{}, "components", nil); err != nil {
		t.Fatal(err)
	}
	if got := svc.MeasureCacheStats().Computes; got != 1 {
		t.Fatalf("live request computes = %d, want 1", got)
	}
}

// TestQueryV2Timeout: a /v2/query whose timeout_ms expires answers 504
// and leaves the measure compute counter untouched.
func TestQueryV2Timeout(t *testing.T) {
	svc := slowGraph()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	body, _ := json.Marshal(map[string]any{
		"dataset": "slow", "s": []int{2}, "measure": "components", "timeout_ms": 20,
	})
	resp, err := http.Post(srv.URL+"/v2/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Fatalf("504 body must carry an error, got %v (%v)", e, err)
	}
	if got := svc.MeasureCacheStats().Computes; got != 0 {
		t.Fatalf("timed-out request bumped the compute counter to %d", got)
	}
}

// TestQueryV2ClientDisconnect: a client that vanishes mid-request
// cancels the pipeline through the request context; the compute
// counter stays untouched and the server keeps serving.
func TestQueryV2ClientDisconnect(t *testing.T) {
	svc := slowGraph()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	body, _ := json.Marshal(map[string]any{
		"dataset": "slow", "s": []int{2}, "measure": "components",
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v2/query", bytes.NewReader(body))
	go func() { time.Sleep(30 * time.Millisecond); cancel() }()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("disconnected request must fail client-side")
	}
	// Give the handler a moment to unwind, then verify no compute was
	// charged and the server still answers.
	time.Sleep(150 * time.Millisecond)
	if got := svc.MeasureCacheStats().Computes; got != 0 {
		t.Fatalf("disconnected request bumped the compute counter to %d", got)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after disconnect: %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestQueryPerSErrors: a measure that is unsatisfiable at one s fails
// that entry alone — the rest of the sweep still answers, at the
// service level and through /v2/query.
func TestQueryPerSErrors(t *testing.T) {
	svc := New(Config{})
	// Hyperedge 0 overlaps hyperedge 1 in exactly one vertex: it has a
	// node at s=1 but none at s=2, so distances from source 0 succeed
	// at s=1 and fail at s=2.
	svc.Add("h", hg.FromEdgeSlices([][]uint32{
		{0, 1}, {1, 2}, {5, 6, 7}, {6, 7, 8}, {7, 8, 9},
	}, 10))

	qr, err := svc.Query(context.Background(), QueryRequest{
		Dataset: "h", S: []int{1, 2}, Measure: "distances",
		Params: map[string]string{"source": "0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Entries) != 2 {
		t.Fatalf("want 2 entries, got %d", len(qr.Entries))
	}
	if qr.Entries[0].S != 1 || qr.Entries[0].Err != nil || qr.Entries[0].Measure == nil {
		t.Fatalf("s=1 entry broken: %+v", qr.Entries[0])
	}
	if qr.Entries[1].S != 2 || qr.Entries[1].Err == nil {
		t.Fatalf("s=2 entry must carry the per-s error, got %+v", qr.Entries[1])
	}

	// Same shape over HTTP: 200 with a per-entry error field.
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	body, _ := json.Marshal(map[string]any{
		"dataset": "h", "s": "1:2", "measure": "distances",
		"params": map[string]string{"source": "0"},
	})
	resp, err := http.Post(srv.URL+"/v2/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (per-s errors do not fail the query)", resp.StatusCode)
	}
	var out struct {
		Results []struct {
			S     int             `json:"s"`
			Error string          `json:"error"`
			Value json.RawMessage `json:"value"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || out.Results[0].Error != "" || len(out.Results[0].Value) == 0 {
		t.Fatalf("v2 s=1 entry broken: %+v", out.Results)
	}
	if out.Results[1].Error == "" {
		t.Fatalf("v2 s=2 entry must carry the error, got %+v", out.Results[1])
	}
}

// TestQueryV2SharesServiceCache pins POST /v2/query to the in-process
// Service.Query it wraps: the same nodes, edges, and edge list, served
// from the entry the library call cached, with the executed plan.
func TestQueryV2SharesServiceCache(t *testing.T) {
	svc := New(Config{})
	svc.Add("p", paperExample())
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	lib, err := svc.Query(context.Background(), QueryRequest{Dataset: "p", S: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	want := lib.Entries[0].Res

	body, _ := json.Marshal(map[string]any{"dataset": "p", "s": []int{2}, "edges": true})
	v2, err := http.Post(srv.URL+"/v2/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Body.Close()
	var v2out struct {
		Plan    *planJSON `json:"plan"`
		Results []struct {
			S        int         `json:"s"`
			Cached   bool        `json:"cached"`
			Nodes    int         `json:"nodes"`
			Edges    int         `json:"edges"`
			EdgeList [][3]uint32 `json:"edge_list"`
		} `json:"results"`
	}
	if err := json.NewDecoder(v2.Body).Decode(&v2out); err != nil {
		t.Fatal(err)
	}
	if len(v2out.Results) != 1 {
		t.Fatalf("want 1 result, got %d", len(v2out.Results))
	}
	r := v2out.Results[0]
	if r.Nodes != want.Graph.NumNodes() || r.Edges != want.Graph.NumEdges() || fmt.Sprint(r.EdgeList) != fmt.Sprint(edgeList(want)) {
		t.Fatalf("v2 projection diverged from Service.Query: %+v", r)
	}
	if !r.Cached {
		t.Fatal("v2 query after the library query must report cached=true")
	}
	if v2out.Plan == nil || v2out.Plan.Strategy == "" {
		t.Fatal("v2 response must carry the executed plan")
	}
}
