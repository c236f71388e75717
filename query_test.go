package hyperline_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"hyperline"
	"hyperline/internal/core"
	"hyperline/internal/experiments"
)

func paperQueryExample() *hyperline.Hypergraph {
	return hyperline.FromEdgeSlices([][]uint32{
		{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3, 4}, {4, 5},
	}, 6)
}

// TestExecuteMatchesCoreRun: Execute's batched, planner-driven sweep
// answers every s exactly as a per-s pipeline run with Algorithm 2
// pinned, in both orientations, in ascending s, with the plan recorded.
func TestExecuteMatchesCoreRun(t *testing.T) {
	h := paperQueryExample()
	qr, err := hyperline.Execute(context.Background(), hyperline.Query{
		Hypergraph: h, S: []int{3, 1, 2, 1}, Options: hyperline.Options{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Entries) != 3 {
		t.Fatalf("want 3 entries, got %d", len(qr.Entries))
	}
	pinned := core.PipelineConfig{Core: core.Config{Algorithm: core.AlgoHashmap}}
	for i, e := range qr.Entries {
		if e.S != i+1 {
			t.Fatalf("entries out of order: %v", qr.Entries)
		}
		want, err := core.Run(context.Background(), h, e.S, pinned)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(e.Result.Graph.Edges(), want.Graph.Edges()) ||
			!reflect.DeepEqual(e.Result.HyperedgeIDs, want.HyperedgeIDs) {
			t.Fatalf("s=%d: Execute and core.Run diverged", e.S)
		}
	}
	if qr.Plan.Strategy == "" {
		t.Fatal("Execute must report the executed plan")
	}

	cq, err := hyperline.Execute(context.Background(), hyperline.Query{
		Hypergraph: h, Kind: hyperline.KindClique, S: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cq.Kind != hyperline.KindClique {
		t.Fatalf("kind = %q, want clique", cq.Kind)
	}
	wantC, err := core.Run(context.Background(), h.Dual(), 1, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cq.Entries[0].Result.Graph.Edges(), wantC.Graph.Edges()) {
		t.Fatal("clique Execute diverged from core.Run on the dual")
	}
}

// TestExecuteMeasureEntries: a measure query carries one evaluated
// value per s, matching the facade measure on the entry's projection.
func TestExecuteMeasureEntries(t *testing.T) {
	h := paperQueryExample()
	qr, err := hyperline.Execute(context.Background(), hyperline.Query{
		Hypergraph: h, S: []int{1, 2}, Measure: "components",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range qr.Entries {
		if e.Err != nil || e.Measure == nil || e.Measure.Value.Scalar == nil {
			t.Fatalf("s=%d: broken measure entry %+v", e.S, e)
		}
		want := hyperline.SConnectedComponents(e.Result)
		if int(*e.Measure.Value.Scalar) != want.Count {
			t.Fatalf("s=%d: %v components, want %d", e.S, *e.Measure.Value.Scalar, want.Count)
		}
	}
}

// TestExecuteValidation: the strict v2 validation surface.
func TestExecuteValidation(t *testing.T) {
	h := paperQueryExample()
	cases := []hyperline.Query{
		{},                           // no hypergraph, no dataset
		{Dataset: "x"},               // dataset without session
		{Hypergraph: h},              // no s values
		{Hypergraph: h, S: []int{0}}, // s < 1
		{Hypergraph: h, S: []int{2}, Kind: "triangle"}, // bad kind
		{Hypergraph: h, S: []int{2}, Measure: "nope"},  // unknown measure
		{Hypergraph: h, Dataset: "x", S: []int{2}},     // both sources
		{Hypergraph: h, S: []int{2}, Measure: "pagerank", // bad param
			Params: map[string]string{"damping": "7"}},
	}
	// A sweep beyond core.MaxSValues is refused, not chunked.
	oversized := make([]int, core.MaxSValues+1)
	for i := range oversized {
		oversized[i] = i + 1
	}
	cases = append(cases, hyperline.Query{Hypergraph: h, S: oversized})
	for i, q := range cases {
		if _, err := hyperline.Execute(context.Background(), q); err == nil {
			t.Fatalf("case %d must fail: %+v", i, q)
		}
	}
}

// TestSessionExecuteSharesCaches: Session.Execute hits the cache
// Warmup fills, serves the identical cached pointer on repeats, and
// caches measure values the same way.
func TestSessionExecuteSharesCaches(t *testing.T) {
	s := hyperline.NewSession(hyperline.SessionOptions{})
	s.Add("p", paperQueryExample())

	if n, err := s.Warmup("p", []int{2}, hyperline.Options{}); err != nil || n != 1 {
		t.Fatalf("warmup computed %d, err %v; want 1", n, err)
	}
	qr, err := s.Execute(context.Background(), hyperline.Query{Dataset: "p", S: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	e := qr.Entries[0]
	if !e.Cached {
		t.Fatal("Execute after Warmup must be a cache hit")
	}
	again, err := s.Execute(context.Background(), hyperline.Query{Dataset: "p", S: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if again.Entries[0].Result != e.Result {
		t.Fatal("Execute must serve the identical cached pointer")
	}

	// Measure path: first Execute computes, second is a measure-cache
	// hit that never consults the projection.
	m1, err := s.Execute(context.Background(), hyperline.Query{Dataset: "p", S: []int{2}, Measure: "diameter"})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Entries[0].Cached || m1.Entries[0].Measure == nil {
		t.Fatalf("first measure query must compute, got %+v", m1.Entries[0])
	}
	m2, err := s.Execute(context.Background(), hyperline.Query{Dataset: "p", S: []int{2}, Measure: "diameter"})
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Entries[0].Cached || m2.Entries[0].Measure.Value != m1.Entries[0].Measure.Value {
		t.Fatalf("second measure query must hit, got %+v", m2.Entries[0])
	}
	if stats := s.MeasureCacheStats(); stats.Computes != 1 {
		t.Fatalf("measure computes = %d, want 1", stats.Computes)
	}

	// Unknown dataset resolves through the session registry.
	if _, err := s.Execute(context.Background(), hyperline.Query{Dataset: "ghost", S: []int{2}}); err == nil {
		t.Fatal("unknown dataset must fail")
	}
}

// TestExecuteDeadline: Query.Deadline bounds the query on its own,
// without a caller-side context deadline.
func TestExecuteDeadline(t *testing.T) {
	h := experiments.LiveJournalAnalog(1)
	_, err := hyperline.Execute(context.Background(), hyperline.Query{
		Hypergraph: h, S: []int{2, 3, 4, 6, 8},
		Deadline: time.Now().Add(20 * time.Millisecond),
	})
	if err == nil {
		t.Skip("machine fast enough to beat a 20ms deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestExecuteCancelFig8Scale is the acceptance property: on the
// Fig-8-scale generated hypergraph (the LiveJournal analog the Fig. 8
// benchmarks use), a cancelled Execute returns context.Canceled within
// the latency bound while the same query uncancelled takes orders of
// magnitude longer.
func TestExecuteCancelFig8Scale(t *testing.T) {
	h := experiments.LiveJournalAnalog(1)
	sweep := []int{2, 3, 4, 6, 8}
	q := hyperline.Query{Hypergraph: h, S: sweep, Options: hyperline.Options{}}

	// Baseline (skipped under the race detector, where it would take
	// tens of seconds and prove nothing about latency).
	var baseline time.Duration
	if !raceEnabled {
		t0 := time.Now()
		if _, err := hyperline.Execute(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		baseline = time.Since(t0)
		t.Logf("uncancelled sweep: %v", baseline)
	}

	bound := 100 * time.Millisecond
	if raceEnabled {
		bound = time.Second
	}
	type outcome struct {
		err error
		at  time.Time
	}
	// One measurement of cancel-to-return latency. The bound is
	// wall-clock, so on a loaded box (the full suite runs every package
	// in parallel on one core) a single attempt can blow it on
	// scheduler starvation alone; the caller retries once, and only two
	// consecutive misses fail — a real latency regression misses both.
	attempt := func() (time.Duration, bool) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan outcome, 1)
		go func() {
			_, err := hyperline.Execute(ctx, q)
			done <- outcome{err: err, at: time.Now()}
		}()
		select {
		case o := <-done:
			t.Skipf("sweep finished before the cancel landed (err=%v)", o.err)
		case <-time.After(100 * time.Millisecond):
		}
		cancelledAt := time.Now()
		cancel()
		o := <-done
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("cancelled Execute returned %v, want context.Canceled", o.err)
		}
		latency := o.at.Sub(cancelledAt)
		return latency, latency <= bound
	}
	latency, ok := attempt()
	if !ok {
		t.Logf("cancel latency %v exceeds %v, retrying once", latency, bound)
		if latency, ok = attempt(); !ok {
			t.Fatalf("cancel latency %v exceeds %v twice", latency, bound)
		}
	}
	t.Logf("cancel latency: %v (baseline %v)", latency, baseline)
	if baseline > 0 && latency*10 > baseline {
		t.Fatalf("cancellation saved too little: latency %v vs baseline %v", latency, baseline)
	}
}
