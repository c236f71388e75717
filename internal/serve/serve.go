// Package serve is the long-running query layer over the s-line graph
// pipeline: a registry of named hypergraph datasets, LRU caches of
// pipeline results and Stage-5 measure values, and singleflight
// deduplication so concurrent identical requests run Stages 1-4 once
// and share one result.
//
// Every question is asked one way: Service.Query takes a QueryRequest
// (dataset, orientation, s-list, optional measure, pipeline options)
// and answers per-s entries pinned to one dataset version. The paper
// treats s-line graphs as a multi-resolution family — the applications
// repeatedly query the same hypergraph at many s values — so the unit
// of caching is one materialized projection (core.PipelineResult), and
// a query's uncached s values run as one core.RunBatch call, letting
// the planner decide whether a single ensemble counting pass or per-s
// passes serve the batch. Warmup is a background-priority Query.
//
// Cache keys are comparable values (projKey, measureKey) naming the
// dataset version, orientation, s, and options fingerprint; their
// String form only names spill files and singleflight flights. Results
// are immutable by convention: every cache reader receives the same
// pointer, and the s-measures of Stage 5 only read the graph.
//
// NewHandler exposes the service over HTTP/JSON (POST /v2/query plus
// dataset administration) for cmd/hyperlined; hyperline.Session
// exposes it to library users.
package serve

import (
	"context"
	"fmt"
	"sync/atomic"

	"hyperline/internal/core"
	"hyperline/internal/hg"
)

// Config configures a Service.
type Config struct {
	// CacheEntries is the LRU capacity in cached pipeline results
	// (0 = DefaultCacheEntries).
	CacheEntries int
	// MeasureCacheEntries is the LRU capacity in cached measure
	// values (0 = DefaultMeasureCacheEntries).
	MeasureCacheEntries int

	// MaxInflight bounds concurrently admitted Stage-3 passes
	// (0 = unlimited). Cache hits and measure evaluations are never
	// gated — admission protects the expensive pipeline work only.
	MaxInflight int
	// ShedCostBudget bounds the summed planner-estimated cost of
	// admitted Stage-3 work, in cost units of roughly one millisecond
	// of s-overlap time each (0 = unlimited). When both limits are
	// exceeded-or-unset the service behaves exactly as before this
	// knob existed.
	ShedCostBudget int64
	// MaxQueue bounds how many interactive requests may wait for
	// admission before further ones are shed (0 = a small default).
	// Background work (warmup) never queues.
	MaxQueue int
	// MaxInflightPerDataset bounds concurrently admitted Stage-3
	// passes per dataset (0 = unlimited). A dataset at its quota sheds
	// immediately with the same 429 + Retry-After path, so one hot
	// dataset cannot monopolize the global budget or the queue.
	MaxInflightPerDataset int

	// DeltaPolicy selects what Ingest does to cached artifacts across a
	// delta-derived version bump: DeltaPolicyPatch (the default)
	// migrates and incrementally patches entries where provably sound;
	// DeltaPolicyInvalidate drops everything — the recompute baseline.
	DeltaPolicy DeltaPolicy
}

// Service ties the dataset registry, the result cache, the Stage-5
// measure cache, and request deduplication together. All methods are
// safe for concurrent use.
type Service struct {
	reg    *Registry
	cache  *Cache
	sf     singleflight
	mcache *MeasureCache
	msf    singleflight
	// measureComputes counts actual measure evaluations (cache misses
	// that ran Compute) — the instrumentation the cache tests assert
	// against, surfaced in MeasureCacheStats.
	measureComputes atomic.Int64
	// projectionComputes counts per-s projections that actually ran
	// Stages 1-4 (cache hits and singleflight joins excluded).
	projectionComputes atomic.Int64
	// sfDedups / msfDedups count requests served by joining another
	// caller's in-flight computation (projection / measure flights).
	sfDedups  atomic.Int64
	msfDedups atomic.Int64

	adm     *admission
	metrics *metrics

	// Streaming ingest state: the configured cache-maintenance policy,
	// the per-dataset change feed, and the lifetime ingest counters the
	// /metrics exposition reports.
	deltaPolicy           DeltaPolicy
	feed                  *changeFeed
	ingestsApplied        atomic.Int64
	ingestMigrated        atomic.Int64
	ingestPatched         atomic.Int64
	ingestDropped         atomic.Int64
	ingestMeasureMigrated atomic.Int64
	ingestMeasureDropped  atomic.Int64

	// spill is the shared disk tier under both LRUs; nil until
	// EnableSpill. Both caches address it by their (disjoint) key
	// namespaces.
	spill *spillStore
}

// New returns an empty service.
func New(cfg Config) *Service {
	policy := cfg.DeltaPolicy
	if policy == "" {
		policy = DeltaPolicyPatch
	}
	return &Service{
		reg:         NewRegistry(),
		cache:       NewCache(cfg.CacheEntries),
		mcache:      NewMeasureCache(cfg.MeasureCacheEntries),
		adm:         newAdmission(cfg.ShedCostBudget, cfg.MaxInflight, cfg.MaxQueue, cfg.MaxInflightPerDataset),
		metrics:     newMetrics(),
		deltaPolicy: policy,
		feed:        newChangeFeed(),
	}
}

// EnableSpill attaches a disk tier under both caches: entries evicted
// from memory serialize into dir (bounded to budgetBytes; <= 0 =
// unbounded), and memory misses probe dir before recomputing. The
// directory is scanned on attach, so entries spilled by a previous
// process — or flushed by SaveState — serve as disk hits immediately.
// Must be called before the service takes traffic.
func (s *Service) EnableSpill(dir string, budgetBytes int64) error {
	store, err := newSpillStore(dir, budgetBytes)
	if err != nil {
		return err
	}
	s.spill = store
	s.cache.setSpill(store, encodeProjection, decodeProjection)
	s.mcache.setSpill(store, encodeMeasureEntry, decodeMeasureEntry)
	return nil
}

// SpillStats snapshots the disk tier; zero-valued when spill is not
// enabled.
func (s *Service) SpillStats() SpillStats {
	if s.spill == nil {
		return SpillStats{}
	}
	return s.spill.Stats()
}

// AdmissionStats snapshots the admission controller: configured limits,
// live occupancy, and lifetime admitted/shed/queued counters.
func (s *Service) AdmissionStats() AdmissionStats { return s.adm.Stats() }

// Add registers h under name, replacing any previous dataset with that
// name (previously cached results for the old version become
// unreachable and age out of the LRU).
func (s *Service) Add(name string, h *hg.Hypergraph) { s.reg.Add(name, h) }

// Load reads a hypergraph from path (format by extension, as
// hgio.LoadFile) and registers it under name.
func (s *Service) Load(name, path string) error {
	_, err := s.reg.Load(name, path)
	return err
}

// Remove drops the named dataset, reporting whether it existed.
func (s *Service) Remove(name string) bool { return s.reg.Remove(name) }

// Datasets lists the registered datasets sorted by name.
func (s *Service) Datasets() []DatasetInfo { return s.reg.List() }

// Stats returns Table IV-style statistics for the named dataset
// (computed once at registration).
func (s *Service) Stats(name string) (hg.Stats, error) {
	return s.reg.Stats(name)
}

// Hypergraph returns the named hypergraph (shared, immutable).
func (s *Service) Hypergraph(name string) (*hg.Hypergraph, error) {
	h, _, err := s.reg.Get(name)
	return h, err
}

// Calibration snapshots the named dataset's observed Stage-3 cost
// tables (both orientations): what the self-calibrating planner has
// measured for this dataset version so far.
func (s *Service) Calibration(name string) (CalibrationInfo, error) {
	return s.reg.Calibration(name)
}

// resolveAt resolves cfg's planner-driven auto knobs (hg.RelabelAuto,
// core.ToplexAuto) against a pinned dataset snapshot and attaches the
// version's cached statistics and calibration table, so every cache key
// derived afterwards names the concrete configuration the pipeline will
// actually run — a planner-chosen configuration shares cache entries
// with the pinned configuration it resolves to. When the snapshot is no
// longer the registry's current version (a concurrent replacement), the
// stats are recomputed from the snapshot and calibration is skipped:
// the new version's table says nothing about this hypergraph.
// Query calls it once, before deriving any key.
func (s *Service) resolveAt(h *hg.Hypergraph, version uint64, name string, dual bool, sValues []int, cfg core.PipelineConfig) core.PipelineConfig {
	if d, ok := s.reg.at(name, version); ok {
		st := d.statsFor(dual)
		cfg.Stats = &st
		cfg.Costs = d.costsFor(dual)
	}
	work := h
	if dual {
		work = h.Dual()
	}
	return core.ResolveConfig(work, sValues, cfg)
}

// CacheStats snapshots the result cache counters.
func (s *Service) CacheStats() CacheStats { return s.cache.Stats() }

// batchFlight is a batch flight outcome: per-s results plus which of
// them the flight found already cached.
type batchFlight struct {
	results map[int]*core.PipelineResult
	hits    map[int]bool
}

// projectBatchAt serves the projections of every distinct s in sValues
// against a pinned dataset snapshot (hypergraph + version), so one
// query never mixes versions even if the dataset is concurrently
// replaced. Cached projections are served as-is and the rest run as
// one planner-driven core.RunBatch pass. cached[s] reports whether
// Stages 1-4 were skipped for that s (a cache hit, or a concurrent
// identical batch's result was shared via singleflight). A cancelled
// ctx aborts cooperatively with ctx.Err() unless another caller still
// waits on the same computation, which then finishes (and is cached)
// without this caller. sValues must be validated and cfg resolved
// (resolveAt) by the caller, Query.
func (s *Service) projectBatchAt(ctx context.Context, h *hg.Hypergraph, version uint64, name string, dual bool, sValues []int, cfg core.PipelineConfig, pri Priority) (map[int]*core.PipelineResult, map[int]bool, error) {
	if dual {
		h = h.Dual()
	}
	distinct := core.DistinctS(sValues)
	results := make(map[int]*core.PipelineResult, len(distinct))
	cached := make(map[int]bool, len(distinct))
	missing := make([]int, 0, len(distinct))
	for _, sVal := range distinct {
		if res, ok := s.cache.Get(newProjKey(name, version, dual, sVal, cfg)); ok {
			results[sVal] = res
			cached[sVal] = true
		} else {
			missing = append(missing, sVal)
		}
	}
	if len(missing) == 0 {
		return results, cached, nil
	}
	// One planner-driven pass fills every missing s. Singleflight is
	// keyed on the batch shape, so concurrent identical batches share
	// one computation; each per-s entry still lands in the cache for
	// single-s requests to hit. The flight runs under its own detached
	// context (fctx): this caller cancelling only aborts the pipeline
	// if no other caller still waits on the same flight.
	bk := fmt.Sprintf("batch/%v%s", missing, newProjKey(name, version, dual, 0, cfg))
	v, err, shared := s.sf.Do(ctx, bk, func(fctx context.Context) (any, error) {
		// Re-probe under the flight: an overlapping batch may have
		// cached some of these s values between our misses and this
		// call. Hits are recorded so the cached flags stay truthful.
		out := batchFlight{
			results: make(map[int]*core.PipelineResult, len(missing)),
			hits:    make(map[int]bool, len(missing)),
		}
		compute := make([]int, 0, len(missing))
		for _, sVal := range missing {
			if res, ok := s.cache.Get(newProjKey(name, version, dual, sVal, cfg)); ok {
				out.results[sVal] = res
				out.hits[sVal] = true
			} else {
				compute = append(compute, sVal)
			}
		}
		if len(compute) > 0 {
			// Admission gates the expensive part only: the flight holds
			// a semaphore slot weighted by the planner-estimated cost of
			// this pass for exactly as long as Stages 1-4 run. Saturation
			// sheds (or, for interactive work, queues) here — after the
			// cache re-probe, so hits are never shed. The flight admits
			// under the priority of the caller that started it; joiners
			// share its fate.
			release, aerr := s.adm.Acquire(fctx, pri, name, estimateCost(cfg, compute))
			if aerr != nil {
				return nil, aerr
			}
			computed, err := func() (map[int]*core.PipelineResult, error) {
				defer release()
				return core.RunBatch(fctx, h, compute, cfg)
			}()
			if err != nil {
				return nil, err
			}
			s.projectionComputes.Add(int64(len(computed)))
			if res := computed[compute[0]]; res != nil {
				s.metrics.observeStages(res.Timings)
			}
			for sVal, res := range computed {
				s.cache.Put(newProjKey(name, version, dual, sVal, cfg), res)
				out.results[sVal] = res
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, nil, err
	}
	if shared {
		s.sfDedups.Add(1)
	}
	bf := v.(batchFlight)
	for sVal, res := range bf.results {
		results[sVal] = res
		cached[sVal] = shared || bf.hits[sVal]
	}
	return results, cached, nil
}

// Warmup precomputes the s-sweep for the named dataset and seeds the
// cache, so subsequent queries for any swept s are hits. Already-cached
// s values are skipped; the rest run as one batched planner-driven pass
// (a single Algorithm 3 ensemble count when its memory is affordable,
// per-s passes otherwise — pinned configurations keep their strategy).
// It returns the number of results computed and the number of distinct
// requested s values that were already cached.
//
// Warmup work is admitted at background priority: when the server is
// saturated it is shed immediately (ErrSaturated) rather than queued,
// so cache seeding can never starve interactive queries.
func (s *Service) Warmup(ctx context.Context, name string, dual bool, sValues []int, cfg core.PipelineConfig) (computed, alreadyHot int, err error) {
	qr, err := s.Query(ctx, QueryRequest{Dataset: name, Dual: dual, S: sValues, Cfg: cfg, Priority: PriorityBackground})
	if err != nil {
		return 0, 0, err
	}
	for _, e := range qr.Entries {
		if e.Cached {
			alreadyHot++
		} else {
			computed++
		}
	}
	return computed, alreadyHot, nil
}
