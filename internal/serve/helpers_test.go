package serve

import (
	"context"

	"hyperline/internal/core"
	"hyperline/internal/measure"
)

// The helpers below phrase the common test questions — one projection,
// an s-sweep, a measure sweep — as Service.Query requests.

// lineGraphs serves the s-line graphs of a sweep, keyed by s, with the
// per-s cached flags.
func lineGraphs(svc *Service, ctx context.Context, name string, sValues []int, cfg core.PipelineConfig) (map[int]*core.PipelineResult, map[int]bool, error) {
	return projections(svc, ctx, name, false, sValues, cfg)
}

// cliqueGraphs is lineGraphs for s-clique graphs.
func cliqueGraphs(svc *Service, ctx context.Context, name string, sValues []int, cfg core.PipelineConfig) (map[int]*core.PipelineResult, map[int]bool, error) {
	return projections(svc, ctx, name, true, sValues, cfg)
}

// lineGraph serves one s-line graph and whether it was cached.
func lineGraph(svc *Service, ctx context.Context, name string, sVal int, cfg core.PipelineConfig) (*core.PipelineResult, bool, error) {
	res, cached, err := projections(svc, ctx, name, false, []int{sVal}, cfg)
	return res[sVal], cached[sVal], err
}

// cliqueGraph is lineGraph for an s-clique graph.
func cliqueGraph(svc *Service, ctx context.Context, name string, sVal int, cfg core.PipelineConfig) (*core.PipelineResult, bool, error) {
	res, cached, err := projections(svc, ctx, name, true, []int{sVal}, cfg)
	return res[sVal], cached[sVal], err
}

func projections(svc *Service, ctx context.Context, name string, dual bool, sValues []int, cfg core.PipelineConfig) (map[int]*core.PipelineResult, map[int]bool, error) {
	qr, err := svc.Query(ctx, QueryRequest{Dataset: name, Dual: dual, S: sValues, Cfg: cfg})
	if err != nil {
		return nil, nil, err
	}
	results := make(map[int]*core.PipelineResult, len(qr.Entries))
	cached := make(map[int]bool, len(qr.Entries))
	for _, e := range qr.Entries {
		results[e.S], cached[e.S] = e.Res, e.Cached
	}
	return results, cached, nil
}

// measureSweep evaluates a measure over a sweep, ordered by ascending
// distinct s; the first per-s error fails the sweep.
func measureSweep(svc *Service, ctx context.Context, name string, dual bool, sValues []int, cfg core.PipelineConfig, measureName string, params map[string]string) ([]*MeasureResult, error) {
	if measureName == "" {
		// An empty name would make a projection-only query.
		_, err := measure.Get(measureName)
		return nil, err
	}
	qr, err := svc.Query(ctx, QueryRequest{
		Dataset: name, Dual: dual, S: sValues, Cfg: cfg,
		Measure: measureName, Params: params,
	})
	if err != nil {
		return nil, err
	}
	out := make([]*MeasureResult, len(qr.Entries))
	for i, e := range qr.Entries {
		if e.Err != nil {
			return nil, e.Err
		}
		out[i] = e.Measure
	}
	return out, nil
}

// measureAt evaluates a measure at one s.
func measureAt(svc *Service, ctx context.Context, name string, dual bool, sVal int, cfg core.PipelineConfig, measureName string, params map[string]string) (*MeasureResult, error) {
	out, err := measureSweep(svc, ctx, name, dual, []int{sVal}, cfg, measureName, params)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}
