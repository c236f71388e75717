package serve

import (
	"context"
	"strings"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/hg"
)

func autoCfg() core.PipelineConfig {
	return core.PipelineConfig{
		Core:   core.Config{Relabel: hg.RelabelAuto},
		Toplex: core.ToplexAuto,
	}
}

// TestAutoKnobsShareCacheWithPinned: a planner-chosen configuration is
// resolved before cache keys are derived, so it hits the entry its
// pinned twin cached (and vice versa). On a small dataset auto
// resolves to the neutral defaults (RelabelNone, ToplexOff) — the zero
// PipelineConfig.
func TestAutoKnobsShareCacheWithPinned(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())
	ctx := context.Background()

	// Pinned default computes...
	if _, cached, err := lineGraph(svc, ctx, "h", 2, core.PipelineConfig{}); err != nil || cached {
		t.Fatalf("pinned first query: cached=%v err=%v, want fresh compute", cached, err)
	}
	// ...and the auto twin must hit the same entry.
	res, cached, err := lineGraph(svc, ctx, "h", 2, autoCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("planner-chosen query missed the entry its pinned twin cached")
	}
	if res == nil || res.Graph.NumEdges() == 0 {
		t.Fatal("shared result is empty")
	}

	// The reverse direction too: a fresh auto query caches under its
	// resolved key, which the pinned twin hits.
	svc2 := New(Config{})
	svc2.Add("h", paperExample())
	first, cached, err := lineGraph(svc2, ctx, "h", 2, autoCfg())
	if err != nil || cached {
		t.Fatalf("auto first query: cached=%v err=%v, want fresh compute", cached, err)
	}
	if first.Plan.KnobReason == "" {
		t.Fatal("auto-planned result carries no knob reason")
	}
	if _, cached, err = lineGraph(svc2, ctx, "h", 2, core.PipelineConfig{}); err != nil || !cached {
		t.Fatalf("pinned query after auto: cached=%v err=%v, want hit", cached, err)
	}
}

// TestAutoKnobsSplitFromOtherPinned: resolution shares entries only
// with the configuration it resolves to — a differently pinned config
// keeps its own entry.
func TestAutoKnobsSplitFromOtherPinned(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())
	ctx := context.Background()

	asc := core.PipelineConfig{Core: core.Config{Relabel: hg.RelabelAscending}}
	if _, cached, err := lineGraph(svc, ctx, "h", 2, asc); err != nil || cached {
		t.Fatalf("pinned-ascending first query: cached=%v err=%v", cached, err)
	}
	// Auto resolves to RelabelNone here, so it must NOT hit the
	// ascending entry.
	if _, cached, err := lineGraph(svc, ctx, "h", 2, autoCfg()); err != nil || cached {
		t.Fatalf("auto query after pinned-ascending: cached=%v err=%v, want split (fresh compute)", cached, err)
	}
	// And the ascending entry is still there.
	if _, cached, err := lineGraph(svc, ctx, "h", 2, asc); err != nil || !cached {
		t.Fatalf("pinned-ascending repeat: cached=%v err=%v, want hit", cached, err)
	}
}

// TestMeasureCacheSharesResolvedKeys: the measure path derives its keys
// from the resolved configuration too, so a planner-chosen measure
// query hits the value its pinned twin cached without touching the
// projection.
func TestMeasureCacheSharesResolvedKeys(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())
	ctx := context.Background()

	if _, err := measureAt(svc, ctx, "h", false, 2, core.PipelineConfig{}, "components", nil); err != nil {
		t.Fatal(err)
	}
	mr, err := measureAt(svc, ctx, "h", false, 2, autoCfg(), "components", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !mr.Cached {
		t.Fatal("planner-chosen measure query missed the value its pinned twin cached")
	}
}

// TestCalibrationLifecycle: queries feed the dataset's calibration
// table; replacing the dataset resets it along with the version.
func TestCalibrationLifecycle(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())
	ctx := context.Background()

	info, err := svc.Calibration("h")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Line) != 0 || len(info.Clique) != 0 {
		t.Fatalf("fresh dataset has calibration: %+v", info)
	}

	if _, _, err := lineGraphs(svc, ctx, "h", []int{2, 3}, core.PipelineConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cliqueGraph(svc, ctx, "h", 1, core.PipelineConfig{}); err != nil {
		t.Fatal(err)
	}
	info, err = svc.Calibration("h")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Line) != 1 || !info.Line[0].Key.Multi || info.Line[0].N != 1 {
		t.Fatalf("line calibration after one batch = %+v, want one multi-s cell with N=1", info.Line)
	}
	if len(info.Clique) != 1 || info.Clique[0].Key.Multi {
		t.Fatalf("clique calibration = %+v, want one single-s cell", info.Clique)
	}

	// Replacement: new version, empty tables.
	svc.Add("h", paperExample())
	info, err = svc.Calibration("h")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Line) != 0 || len(info.Clique) != 0 {
		t.Fatalf("replaced dataset kept calibration: %+v", info)
	}

	if _, err := svc.Calibration("nope"); err == nil {
		t.Fatal("want error for unknown dataset calibration")
	}
}

// TestCostsEndpoint: the calibration table is inspectable over HTTP,
// keyed by dataset, and reflects observations made through the API.
func TestCostsEndpoint(t *testing.T) {
	ts, svc := newTestServer(t)
	svc.Add("paper", paperExample())

	var fresh struct {
		Name    string         `json:"name"`
		Version uint64         `json:"version"`
		Line    []costCellJSON `json:"line"`
		Clique  []costCellJSON `json:"clique"`
	}
	do(t, "GET", ts.URL+"/v1/datasets/paper/costs", nil, 200, &fresh)
	if fresh.Name != "paper" || len(fresh.Line) != 0 || len(fresh.Clique) != 0 {
		t.Fatalf("fresh costs = %+v, want empty tables", fresh)
	}

	if _, _, err := lineGraph(svc, context.Background(), "paper", 2, core.PipelineConfig{}); err != nil {
		t.Fatal(err)
	}
	var after struct {
		Line []costCellJSON `json:"line"`
	}
	do(t, "GET", ts.URL+"/v1/datasets/paper/costs", nil, 200, &after)
	if len(after.Line) != 1 {
		t.Fatalf("costs after one query: %+v, want one line cell", after)
	}
	cell := after.Line[0]
	if cell.N != 1 || cell.Multi || cell.PerSMS < 0 {
		t.Fatalf("cost cell = %+v", cell)
	}
	if cell.Strategy == "" || cell.Relabel == "" {
		t.Fatalf("cost cell missing names: %+v", cell)
	}

	do(t, "GET", ts.URL+"/v1/datasets/ghost/costs", nil, 404, nil)
}

// TestRegistryStatsCarryContainmentProbe: registration computes the
// containment probe the planner's toplex knob reads, on both
// orientations.
func TestRegistryStatsCarryContainmentProbe(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample()) // 2 of 4 hyperedges are contained
	st, err := svc.Stats("h")
	if err != nil {
		t.Fatal(err)
	}
	if st.ToplexSample != 0.5 {
		t.Fatalf("registered ToplexSample = %v, want 0.5", st.ToplexSample)
	}
	_, version, err := svc.reg.Get("h")
	if err != nil {
		t.Fatal(err)
	}
	d, ok := svc.reg.at("h", version)
	if !ok {
		t.Fatal("registry lost the dataset")
	}
	dual := d.statsFor(true)
	if dual.NumEdges != paperExample().NumVertices() {
		t.Fatalf("dual stats describe %d hyperedges, want %d", dual.NumEdges, paperExample().NumVertices())
	}
	if !strings.HasSuffix(dual.Name, "/dual") {
		t.Fatalf("dual stats name = %q", dual.Name)
	}
}
