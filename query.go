package hyperline

import (
	"context"
	"fmt"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/measure"
	"hyperline/internal/serve"
)

// Kind selects the projection family of a Query: s-line graphs of the
// hypergraph itself, or s-clique graphs (s-line graphs of the dual).
type Kind string

const (
	// KindLine requests s-line graphs — the default (the zero value
	// "" means KindLine).
	KindLine Kind = "line"
	// KindClique requests s-clique graphs, computed on the dual
	// hypergraph.
	KindClique Kind = "clique"
)

// PlanInfo records the Stage-3 strategy the planner executed and why.
type PlanInfo = core.PlanInfo

// StageTimings records wall-clock time per pipeline stage.
type StageTimings = core.StageTimings

// Query is the one request shape for every question: one projection
// family, an s-list, an optional Stage-5 measure, and the execution
// options — behind Execute, Session.Execute, and the hyperlined
// POST /v2/query endpoint.
type Query struct {
	// Dataset names a Session-registered dataset. Only Session.Execute
	// resolves it; exactly one of Dataset and Hypergraph must be set.
	Dataset string
	// Hypergraph supplies the hypergraph directly (no registry, no
	// caching).
	Hypergraph *Hypergraph
	// Kind selects line ("" or KindLine) or clique (KindClique)
	// projections.
	Kind Kind
	// S lists the requested overlap thresholds. Duplicates collapse;
	// results are ordered by ascending distinct s. Values must be ≥ 1
	// and one query may request at most core.MaxSValues values.
	S []int
	// Measure optionally names a registered Stage-5 measure (see
	// Measures) to evaluate on every projection of the sweep.
	Measure string
	// Params are the measure's parameters, validated against its
	// schema before any pipeline work runs.
	Params map[string]string
	// Options are the pipeline options.
	Options Options
	// Deadline optionally bounds the whole query: past it the pipeline
	// aborts cooperatively and Execute returns
	// context.DeadlineExceeded. It combines with any deadline already
	// on the ctx passed to Execute — whichever expires first wins.
	Deadline time.Time
	// Priority classifies the query's Stage-3 work for a Session
	// configured with admission limits (SessionOptions.MaxInflight /
	// ShedCostBudget): interactive work (the zero value) may wait in
	// the bounded admission queue, background work is shed immediately
	// under saturation (ErrSaturated). Ignored by the sessionless
	// Execute, which has no admission controller.
	Priority Priority
}

// kind normalizes and validates the projection family.
func (q Query) kind() (Kind, bool, error) {
	switch q.Kind {
	case "", KindLine:
		return KindLine, false, nil
	case KindClique:
		return KindClique, true, nil
	}
	return "", false, fmt.Errorf("hyperline: unknown query kind %q (want %q or %q)", q.Kind, KindLine, KindClique)
}

// deadlineContext applies Query.Deadline to ctx.
func (q Query) deadlineContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if q.Deadline.IsZero() {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, q.Deadline)
}

// QueryEntry is one per-s outcome of an executed Query.
type QueryEntry struct {
	// S is the overlap threshold this entry answers.
	S int
	// Result is the materialized projection. It is nil when the entry
	// was served purely from a Session's measure cache (the projection
	// was never consulted); on per-s measure failure it remains set,
	// so the projection the measure failed on stays inspectable. Err,
	// not Result, is the success test.
	Result *Result
	// Measure is the measure evaluation, when the query named one.
	Measure *MeasureResult
	// Cached reports whether the served artifact — the measure value
	// for measure queries, the projection otherwise — came from a
	// Session cache or a concurrent identical request. Always false
	// for sessionless Execute calls.
	Cached bool
	// Err is this entry's failure (e.g. a measure source hyperedge
	// with no node at this s). Per-s errors do not fail the whole
	// query.
	Err error
}

// Timings returns the entry's stage timings, zero when the projection
// was never consulted (a pure measure-cache hit).
func (e QueryEntry) Timings() StageTimings {
	if e.Result != nil {
		return e.Result.Timings
	}
	return StageTimings{}
}

// QueryResult is the outcome of one executed Query: ordered per-s
// entries plus the executed plan.
type QueryResult struct {
	// Kind is the normalized projection family.
	Kind Kind
	// Plan records the Stage-3 strategy decision taken (or originally
	// taken, for cached projections); zero when no projection was
	// touched.
	Plan PlanInfo
	// Entries holds one entry per distinct requested s, ascending.
	Entries []QueryEntry
}

// Execute runs a Query against the supplied Hypergraph: validation
// first, then one batched planner-driven Stage 1-4 pass for the whole
// s-list, then — when a measure is named — one Stage-5 evaluation per
// s with per-s errors. Dataset queries need a Session (Session.Execute
// resolves names against its registry and serves repeats from its
// caches).
//
// Cancellation is cooperative end to end: when ctx is cancelled or the
// query's Deadline passes, the pipeline's worker loops abort within a
// bounded latency (roughly one neighbor-list scan plus one Stage-4
// build) and Execute returns the context's error. A nil ctx means
// context.Background().
func Execute(ctx context.Context, q Query) (*QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	kind, dual, err := q.kind()
	if err != nil {
		return nil, err
	}
	if q.Hypergraph == nil {
		if q.Dataset != "" {
			return nil, fmt.Errorf("hyperline: Query.Dataset %q requires a Session — use Session.Execute", q.Dataset)
		}
		return nil, fmt.Errorf("hyperline: Query needs a Hypergraph (or a Dataset with Session.Execute)")
	}
	if q.Dataset != "" {
		return nil, fmt.Errorf("hyperline: set Query.Hypergraph or Query.Dataset, not both")
	}
	if err := core.ValidateSValues(q.S); err != nil {
		return nil, err
	}
	var m measure.Measure
	var p measure.Params
	if q.Measure != "" {
		if m, err = measure.Get(q.Measure); err != nil {
			return nil, err
		}
		if p, err = measure.Canonicalize(m, q.Params); err != nil {
			return nil, err
		}
	}
	ctx, cancel := q.deadlineContext(ctx)
	defer cancel()

	h := q.Hypergraph
	if dual {
		h = h.Dual()
	}
	results, err := core.RunBatch(ctx, h, q.S, q.Options.pipeline())
	if err != nil {
		return nil, err
	}
	distinct := core.DistinctS(q.S)
	out := &QueryResult{Kind: kind, Entries: make([]QueryEntry, len(distinct))}
	out.Plan = results[distinct[0]].Plan
	for i, sVal := range distinct {
		res := results[sVal]
		e := QueryEntry{S: sVal, Result: res}
		if m != nil {
			val, merr := m.Compute(ctx, res, p, q.Options.par())
			switch {
			case merr != nil && ctx.Err() != nil:
				// Cancellation fails the whole query, not one entry.
				return nil, ctx.Err()
			case merr != nil:
				e.Err = merr
			default:
				e.Measure = &MeasureResult{S: sVal, MeasureEntry: serve.NewMeasureEntry(res, val)}
			}
		}
		out.Entries[i] = e
	}
	return out, nil
}

// Execute runs a Query against this Session: Dataset queries resolve
// through the registry and are served from (and recorded in) the
// Session's projection and measure caches, with concurrent identical
// requests deduplicated; a query carrying an ad-hoc Hypergraph runs
// uncached, exactly like the top-level Execute.
//
// Cancellation follows the Execute contract, with one serving-layer
// refinement: if concurrent identical requests share one computation,
// a cancelled caller detaches immediately (receiving ctx.Err()) while
// the computation finishes for the remaining waiters and its result is
// still cached; only when the last waiter cancels does the computation
// itself abort.
func (s *Session) Execute(ctx context.Context, q Query) (*QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if q.Hypergraph != nil {
		if q.Dataset != "" {
			return nil, fmt.Errorf("hyperline: set Query.Hypergraph or Query.Dataset, not both")
		}
		return Execute(ctx, q)
	}
	kind, dual, err := q.kind()
	if err != nil {
		return nil, err
	}
	ctx, cancel := q.deadlineContext(ctx)
	defer cancel()
	qr, err := s.svc.Query(ctx, serve.QueryRequest{
		Dataset:  q.Dataset,
		Dual:     dual,
		S:        q.S,
		Cfg:      q.Options.pipeline(),
		Measure:  q.Measure,
		Params:   q.Params,
		Priority: q.Priority,
	})
	if err != nil {
		return nil, err
	}
	out := &QueryResult{Kind: kind, Plan: qr.Plan, Entries: make([]QueryEntry, len(qr.Entries))}
	for i, e := range qr.Entries {
		out.Entries[i] = QueryEntry{S: e.S, Result: e.Res, Measure: e.Measure, Cached: e.Cached, Err: e.Err}
	}
	return out, nil
}
