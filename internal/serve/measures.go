package serve

import (
	"context"

	"hyperline/internal/core"
	"hyperline/internal/measure"
	"hyperline/internal/par"
)

// MeasureResult is one served measure evaluation: the cached entry
// (value + projection shape) plus cache provenance for the measure
// itself and the underlying projection.
type MeasureResult struct {
	// S is the overlap threshold the measure was evaluated at.
	S int
	// Entry is the measure value and the projection shape it was
	// computed on (shared, immutable — do not mutate).
	*MeasureEntry
	// Cached reports whether the measure value itself was served
	// without recomputation (measure-cache hit, or a concurrent
	// identical request's value was shared via singleflight).
	Cached bool
	// ProjectionCached reports whether Stages 1-4 were skipped for
	// the underlying projection (always true on a measure-cache hit:
	// the projection is not even consulted).
	ProjectionCached bool
}

// MeasureCacheStats extends the cache counters with the number of
// actual measure evaluations the service has run — the ground truth
// the caching tests (and capacity planning) compare hit counts
// against.
type MeasureCacheStats struct {
	CacheStats
	Computes int64 `json:"computes"`
}

// MeasureCacheStats snapshots the measure-cache counters.
func (s *Service) MeasureCacheStats() MeasureCacheStats {
	return MeasureCacheStats{
		CacheStats: s.mcache.Stats(),
		Computes:   s.measureComputes.Load(),
	}
}

// measureFlight is a measure singleflight outcome: the entry plus
// whether the flight itself served it from the measure cache.
type measureFlight struct {
	entry     *MeasureEntry
	fromCache bool
}

// measureOne serves one measure evaluation: a singleflight-deduplicated
// cache probe + Compute under the flight's detached context, so a
// disconnected client neither aborts an evaluation other clients wait
// on nor — when it disconnects before the evaluation starts — bumps
// the compute counter.
func (s *Service) measureOne(ctx context.Context, mk measureKey, m measure.Measure, p measure.Params, cfg core.PipelineConfig, res *core.PipelineResult, projCached bool) (*MeasureResult, error) {
	popt := par.Options{Workers: cfg.Core.Workers, Grain: cfg.Core.Grain, Strategy: cfg.Core.Partition}
	v, err, shared := s.msf.Do(ctx, mk.String(), func(fctx context.Context) (any, error) {
		// Re-probe under the flight: an identical request may have
		// cached the value between our miss and this call
		// (singleflight forgets completed flights).
		if e, ok := s.mcache.Get(mk); ok {
			return measureFlight{entry: e, fromCache: true}, nil
		}
		// An evaluation nobody waits for anymore must not start (or
		// count): the flight context trips when the last waiter leaves.
		if err := fctx.Err(); err != nil {
			return nil, err
		}
		s.measureComputes.Add(1)
		val, err := m.Compute(fctx, res, p, popt)
		if err != nil {
			return nil, err
		}
		e := NewMeasureEntry(res, val)
		s.mcache.Put(mk, e)
		return measureFlight{entry: e}, nil
	})
	if err != nil {
		return nil, err
	}
	if shared {
		s.msfDedups.Add(1)
	}
	f := v.(measureFlight)
	return &MeasureResult{
		S:                res.S,
		MeasureEntry:     f.entry,
		Cached:           shared || f.fromCache,
		ProjectionCached: projCached,
	}, nil
}
