package serve

import (
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/delta"
	"hyperline/internal/hg"
	"hyperline/internal/measure"
)

// TestKeyStringsStable pins the String form of the typed cache keys to
// the strings earlier releases formatted directly. Spill files and
// -state-dir snapshots are named by these strings, so a drift would
// turn every entry written before an upgrade into a miss.
func TestKeyStringsStable(t *testing.T) {
	line := newProjKey("paper", 3, false, 2, core.PipelineConfig{})
	if got, want := line.String(), "paper@3/line/s=2/class=exact,relabel=N,toplex=false,squeeze=true"; got != want {
		t.Fatalf("line key = %q, want %q", got, want)
	}

	cfg := core.PipelineConfig{
		Core:      core.Config{Algorithm: core.AlgoSetIntersection, Relabel: hg.RelabelDescending},
		Toplex:    core.ToplexOn,
		NoSqueeze: true,
	}
	m, err := measure.Get("pagerank")
	if err != nil {
		t.Fatal(err)
	}
	p, err := measure.Canonicalize(m, map[string]string{"damping": "0.5"})
	if err != nil {
		t.Fatal(err)
	}
	mk := newMeasureKey(newProjKey("web", 41, true, 7, cfg), m, p)
	if got, want := mk.String(), "web@41/clique/s=7/class=shortcircuit,relabel=D,toplex=true,squeeze=false/measure=pagerank?damping=0.5"; got != want {
		t.Fatalf("clique measure key = %q, want %q", got, want)
	}
}

// TestKeyAttrs: the ingest walk reads the patcher's attributes straight
// off the key fields, and refuses keys whose planner knobs are
// unresolved.
func TestKeyAttrs(t *testing.T) {
	k := newProjKey("paper", 3, true, 4, core.PipelineConfig{Core: core.Config{Relabel: hg.RelabelAscending}})
	a, ok := k.attrs()
	want := delta.KeyAttrs{Dual: true, S: 4, Exact: true, Relabel: hg.RelabelAscending, Toplex: false, Squeeze: true}
	if !ok || a != want {
		t.Fatalf("attrs = %+v (ok %v), want %+v", a, ok, want)
	}
	for _, cfg := range []core.PipelineConfig{
		{Core: core.Config{Relabel: hg.RelabelAuto}},
		{Toplex: core.ToplexAuto},
	} {
		if _, ok := newProjKey("paper", 3, false, 2, cfg).attrs(); ok {
			t.Fatalf("unresolved knobs %+v must not be patchable", cfg.Fingerprint())
		}
	}
}
