package hyperline

import (
	"context"
	"io"

	"hyperline/internal/core"
	"hyperline/internal/measure"
	"hyperline/internal/serve"
)

// CacheStats is a snapshot of a Session's result-cache counters.
type CacheStats = serve.CacheStats

// MeasureCacheStats is a snapshot of a Session's measure-cache
// counters, including the number of actual measure evaluations run.
type MeasureCacheStats = serve.MeasureCacheStats

// DatasetInfo describes one dataset registered in a Session.
type DatasetInfo = serve.DatasetInfo

// MeasureInfo describes one registered Stage-5 measure (name, doc,
// cost hint, parameter schema).
type MeasureInfo = measure.Info

// MeasureValue is one measure result: a scalar, a per-node vector
// (float or integer), or node groups in input hyperedge IDs, depending
// on the measure's shape. Values served from a Session are shared and
// must be treated as immutable.
type MeasureValue = measure.Value

// MeasureResult is one served measure evaluation: the value, the
// projection shape it was computed on, and cache provenance.
type MeasureResult = serve.MeasureResult

// CalibrationInfo is the self-calibrating planner's observed Stage-3
// cost state for one dataset version: every (strategy, relabel, toplex,
// batch-shape) cell the session has measured, per orientation.
type CalibrationInfo = serve.CalibrationInfo

// CostObservation is one exported cell of a calibration table.
type CostObservation = core.CostObservation

// Priority classifies a query's Stage-3 work for admission control in
// a Session (or server) configured with admission limits.
type Priority = serve.Priority

const (
	// PriorityInteractive marks user-facing queries: under saturation
	// they wait in the bounded admission queue before being shed.
	PriorityInteractive = serve.PriorityInteractive
	// PriorityBackground marks deferrable work (warmup, bulk seeding):
	// under saturation it is shed immediately, never queued.
	PriorityBackground = serve.PriorityBackground
)

// ErrSaturated marks queries shed by admission control; test with
// errors.Is. The concrete error is a *serve.SaturatedError carrying a
// Retry-After estimate.
var ErrSaturated = serve.ErrSaturated

// AdmissionStats is a snapshot of a Session's admission controller:
// configured limits, live occupancy, and admitted/shed counters.
type AdmissionStats = serve.AdmissionStats

// SpillStats is a snapshot of a Session's on-disk cache tier: entry and
// byte counts against the budget, plus hit/miss/write/eviction
// counters.
type SpillStats = serve.SpillStats

// Measures lists every registered Stage-5 measure, sorted by name.
func Measures() []MeasureInfo { return measure.Infos() }

// SessionOptions configures a Session.
type SessionOptions struct {
	// CacheEntries is the LRU capacity in cached results (0 = 128).
	CacheEntries int
	// MeasureCacheEntries is the LRU capacity in cached measure
	// values (0 = 1024).
	MeasureCacheEntries int
	// MaxInflight bounds concurrently admitted Stage-3 passes
	// (0 = unlimited); excess interactive queries wait in a bounded
	// queue, then shed with ErrSaturated. Cache hits are never gated.
	MaxInflight int
	// ShedCostBudget bounds the summed planner-estimated cost of
	// admitted Stage-3 work, in ~1ms cost units (0 = unlimited).
	ShedCostBudget int64
	// MaxQueue bounds the interactive admission wait queue
	// (0 = a small default).
	MaxQueue int
	// MaxInflightPerDataset bounds concurrently admitted Stage-3
	// passes per dataset (0 = unlimited); a dataset at its quota sheds
	// immediately with ErrSaturated.
	MaxInflightPerDataset int

	// SpillDir, when non-empty, attaches a disk tier under both
	// caches: entries evicted from memory serialize there and memory
	// misses probe it before recomputing. Honored by OpenSession
	// (NewSession ignores persistence options — it cannot report
	// setup errors).
	SpillDir string
	// SpillBudgetBytes bounds the spill directory (<= 0 = unbounded);
	// least recently used files are removed past it.
	SpillBudgetBytes int64
	// StateDir, when non-empty, makes OpenSession restore a registry
	// snapshot written by SaveState (a warm start; a missing or empty
	// directory is a cold start). Pair with SaveState on the way out.
	StateDir string
}

// Session is a long-lived facade over the pipeline with a shared result
// cache — the library-side counterpart of the hyperlined server. The
// paper's applications query the same hypergraph at many s values;
// a Session computes each distinct projection once and serves repeats
// from an LRU keyed by (dataset, s, output-relevant options).
// Concurrent identical requests are deduplicated: they run Stages 1-4
// once and share the result. All methods are safe for concurrent use.
//
// Cached results are shared by reference and must be treated as
// immutable, exactly like the results of Execute.
type Session struct {
	svc *serve.Service
}

// NewSession returns an empty session. Persistence options (SpillDir,
// StateDir) are ignored here — use OpenSession, which can report their
// setup errors.
func NewSession(opt SessionOptions) *Session {
	return &Session{svc: serve.New(serve.Config{
		CacheEntries:          opt.CacheEntries,
		MeasureCacheEntries:   opt.MeasureCacheEntries,
		MaxInflight:           opt.MaxInflight,
		ShedCostBudget:        opt.ShedCostBudget,
		MaxQueue:              opt.MaxQueue,
		MaxInflightPerDataset: opt.MaxInflightPerDataset,
	})}
}

// OpenSession returns a session honoring every option, including the
// persistence ones: with SpillDir set it attaches the disk cache tier,
// and with StateDir set it restores any registry snapshot found there —
// a warm start whose first queries hit the spill tier instead of
// recomputing. Sessions opened this way should SaveState (to snapshot)
// and Close (to unmap datasets) on the way out.
func OpenSession(opt SessionOptions) (*Session, error) {
	s := NewSession(opt)
	if opt.SpillDir != "" {
		if err := s.svc.EnableSpill(opt.SpillDir, opt.SpillBudgetBytes); err != nil {
			return nil, err
		}
	}
	if opt.StateDir != "" {
		if _, err := s.svc.RestoreState(opt.StateDir); err != nil {
			s.svc.Close()
			return nil, err
		}
	}
	return s, nil
}

// SaveState persists the session's registry into dir and flushes both
// caches through the spill store (when attached), so a later
// OpenSession with StateDir == dir boots warm. See serve.SaveState.
func (s *Session) SaveState(dir string) error { return s.svc.SaveState(dir) }

// RestoreState rehydrates datasets from a state directory written by
// SaveState, mapping their files rather than parsing them. A missing
// manifest is a cold start. Returns the restored dataset names.
func (s *Session) RestoreState(dir string) ([]string, error) { return s.svc.RestoreState(dir) }

// SpillStats snapshots the disk cache tier; zero-valued when no spill
// directory is attached.
func (s *Session) SpillStats() SpillStats { return s.svc.SpillStats() }

// Close unmaps every mapped dataset. Call it when done with a session
// that loaded binary files or restored state; outstanding results must
// no longer be read afterwards.
func (s *Session) Close() error { return s.svc.Close() }

// Add registers h under name, replacing any previous dataset with that
// name (its cached results are invalidated).
func (s *Session) Add(name string, h *Hypergraph) { s.svc.Add(name, h) }

// Load reads a hypergraph from path (format by extension, as Load) and
// registers it under name.
func (s *Session) Load(name, path string) error { return s.svc.Load(name, path) }

// Remove drops the named dataset, reporting whether it existed.
func (s *Session) Remove(name string) bool { return s.svc.Remove(name) }

// Datasets lists the registered datasets sorted by name.
func (s *Session) Datasets() []DatasetInfo { return s.svc.Datasets() }

// Warmup precomputes the s-sweep for the named dataset as one batched
// planner-driven pass and seeds the cache, so subsequent Execute calls
// for any swept s (same options) are hits. It returns the number of projections
// actually computed; already-cached s values are skipped.
func (s *Session) Warmup(name string, sValues []int, opt Options) (int, error) {
	computed, _, err := s.svc.Warmup(context.Background(), name, false, sValues, opt.pipeline())
	return computed, err
}

// Calibration snapshots what the self-calibrating planner has measured
// for the named dataset's current version: observed Stage-3 cost per
// (strategy, relabel, toplex, batch shape) cell, per orientation. Fresh
// and freshly replaced datasets report empty tables — calibration never
// survives a version bump. Once a cell reaches core.CalibrationMin
// observations, auto-planned queries (Options.Algorithm = AlgoAuto,
// Relabel = RelabelAuto) consult it in place of the static heuristics.
func (s *Session) Calibration(name string) (CalibrationInfo, error) {
	return s.svc.Calibration(name)
}

// CacheStats snapshots the session's result-cache counters.
func (s *Session) CacheStats() CacheStats { return s.svc.CacheStats() }

// MeasureCacheStats snapshots the session's measure-cache counters.
func (s *Session) MeasureCacheStats() MeasureCacheStats { return s.svc.MeasureCacheStats() }

// AdmissionStats snapshots the session's admission controller:
// configured limits, live occupancy, and admitted/shed/queued counters.
func (s *Session) AdmissionStats() AdmissionStats { return s.svc.AdmissionStats() }

// WriteMetrics renders the session's full Prometheus text exposition —
// the same document hyperlined serves at GET /metrics: cache and
// compute counters, singleflight dedups, admission state, and
// per-stage latency histograms.
func (s *Session) WriteMetrics(w io.Writer) error { return s.svc.WriteMetrics(w) }
