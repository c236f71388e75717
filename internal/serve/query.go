package serve

import (
	"context"

	"hyperline/internal/core"
	"hyperline/internal/measure"
)

// QueryRequest is the serve-level form of the v2 unified query: one
// dataset, one orientation, an s-list, an optional Stage-5 measure, and
// the pipeline configuration. It is the single request shape behind
// POST /v2/query, warmup, and Session.Execute.
type QueryRequest struct {
	// Dataset names a registered dataset.
	Dataset string
	// Dual selects the s-clique orientation (the dual hypergraph).
	Dual bool
	// S lists the requested overlap thresholds (validated against
	// core.ValidateSValues; duplicates collapse, results are ordered by
	// ascending distinct s).
	S []int
	// Cfg is the pipeline configuration; its options fingerprint is
	// part of every cache key.
	Cfg core.PipelineConfig
	// Measure optionally names a registered Stage-5 measure to
	// evaluate on every projection of the sweep.
	Measure string
	// Params are the measure's raw parameters (validated against its
	// schema before any pipeline work runs).
	Params map[string]string
	// Priority classifies the query's Stage-3 work for admission
	// control. The zero value is PriorityInteractive (may wait in the
	// bounded admission queue); PriorityBackground marks deferrable
	// work that is shed instead of queued under saturation.
	Priority Priority
}

// QueryEntry is one per-s outcome of a Query.
type QueryEntry struct {
	// S is the overlap threshold this entry answers.
	S int
	// Res is the materialized projection. It is nil when the entry was
	// served purely from the measure cache (the projection was never
	// consulted); on per-s measure failure it remains set, so callers
	// can still inspect the projection the measure failed on. Err, not
	// Res, is the success test.
	Res *core.PipelineResult
	// Measure is the measure evaluation, when the request named one.
	Measure *MeasureResult
	// Cached reports whether the served artifact — the measure value
	// for measure queries, the projection otherwise — came from a
	// cache or a concurrent identical request.
	Cached bool
	// Err is this entry's failure (e.g. a measure parameter that is
	// unsatisfiable at this s). Per-s errors do not fail the whole
	// query; request-level failures (unknown dataset or measure, bad
	// parameters, cancellation) are returned by Query itself.
	Err error
}

// QueryResult is the outcome of one Query: per-s entries ordered by
// ascending distinct s, plus the executed plan.
type QueryResult struct {
	Entries []QueryEntry
	// Plan records the Stage-3 strategy decision taken (or originally
	// taken, for cached projections). It is zero when every entry was
	// served from the measure cache and no projection was touched.
	Plan core.PlanInfo
	// Version is the dataset version the whole query was pinned to —
	// under streaming ingest, the consistency token a client needs to
	// compare answers across deltas.
	Version uint64
}

// Query executes one unified v2 request: validation first (a typo
// fails in microseconds, before any pipeline work), then one batched
// planner-driven pass for the uncached projections, then — when a
// measure is named — one cached, deduplicated measure evaluation per
// s. Cancellation is cooperative end to end: a cancelled ctx aborts
// the pipeline within a bounded latency and Query returns ctx.Err(),
// unless concurrent identical requests still wait on the shared
// computation (singleflight keeps the flight alive for them and the
// result is still cached).
func (s *Service) Query(ctx context.Context, q QueryRequest) (*QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := core.ValidateSValues(q.S); err != nil {
		return nil, err
	}
	var m measure.Measure
	var p measure.Params
	if q.Measure != "" {
		var err error
		if m, err = measure.Get(q.Measure); err != nil {
			return nil, err
		}
		if p, err = measure.Canonicalize(m, q.Params); err != nil {
			return nil, err
		}
	}
	// The dataset snapshot (hypergraph + version) is read once and
	// pinned through the whole query, so a concurrent replacement can
	// never mix two versions within one response.
	h, version, err := s.reg.Get(q.Dataset)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Resolve planner-driven auto knobs once, up front: every cache
	// key below embeds the configuration fingerprint, so it must name
	// the concrete knobs the pipeline would run, or a planner-chosen
	// query would miss the entries its pinned twin cached.
	q.Cfg = s.resolveAt(h, version, q.Dataset, q.Dual, core.DistinctS(q.S), q.Cfg)

	distinct := core.DistinctS(q.S)
	out := &QueryResult{Entries: make([]QueryEntry, len(distinct)), Version: version}
	index := make(map[int]int, len(distinct))
	for i, sVal := range distinct {
		index[sVal] = i
		out.Entries[i] = QueryEntry{S: sVal}
	}

	if m == nil {
		results, cached, err := s.projectBatchAt(ctx, h, version, q.Dataset, q.Dual, distinct, q.Cfg, q.Priority)
		if err != nil {
			return nil, err
		}
		for i, sVal := range distinct {
			out.Entries[i].Res = results[sVal]
			out.Entries[i].Cached = cached[sVal]
		}
		out.Plan = results[distinct[0]].Plan
		return out, nil
	}

	// Measure path: probe the measure cache per s, then fetch every
	// projection the misses need as one batch, then evaluate.
	missing := make([]int, 0, len(distinct))
	for _, sVal := range distinct {
		mk := newMeasureKey(newProjKey(q.Dataset, version, q.Dual, sVal, q.Cfg), m, p)
		if e, ok := s.mcache.Get(mk); ok {
			i := index[sVal]
			out.Entries[i].Measure = &MeasureResult{S: sVal, MeasureEntry: e, Cached: true, ProjectionCached: true}
			out.Entries[i].Cached = true
		} else {
			missing = append(missing, sVal)
		}
	}
	if len(missing) > 0 {
		projs, projCached, err := s.projectBatchAt(ctx, h, version, q.Dataset, q.Dual, missing, q.Cfg, q.Priority)
		if err != nil {
			return nil, err
		}
		for _, sVal := range missing {
			i := index[sVal]
			out.Entries[i].Res = projs[sVal]
			mk := newMeasureKey(newProjKey(q.Dataset, version, q.Dual, sVal, q.Cfg), m, p)
			mr, err := s.measureOne(ctx, mk, m, p, q.Cfg, projs[sVal], projCached[sVal])
			if err != nil {
				// Cancellation fails the query; anything else is a
				// per-s outcome (the other s values still answer).
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
				out.Entries[i].Err = err
				continue
			}
			out.Entries[i].Measure = mr
			out.Entries[i].Cached = mr.Cached
		}
	}
	for _, e := range out.Entries {
		if e.Res != nil {
			out.Plan = e.Res.Plan
			break
		}
	}
	return out, nil
}
