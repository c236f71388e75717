package serve

import (
	"fmt"

	"hyperline/internal/core"
	"hyperline/internal/delta"
	"hyperline/internal/hg"
	"hyperline/internal/measure"
)

// projKey identifies one cached projection. The dataset version makes
// replaced (or ingested) datasets miss; the fingerprint folds in every
// output-relevant option, so requests differing only in execution knobs
// (workers, grain, partition, counter store) share an entry.
type projKey struct {
	Dataset string
	Version uint64
	Dual    bool
	S       int
	FP      core.Fingerprint
}

func newProjKey(name string, version uint64, dual bool, sVal int, cfg core.PipelineConfig) projKey {
	return projKey{Dataset: name, Version: version, Dual: dual, S: sVal, FP: cfg.Fingerprint()}
}

// String renders the key as "name@version/line|clique/s=N/fingerprint",
// the name spill files are stored under. Spill directories and
// -state-dir snapshots outlive the process, so this form must not
// change.
func (k projKey) String() string {
	orient := "line"
	if k.Dual {
		orient = "clique"
	}
	return fmt.Sprintf("%s@%d/%s/s=%d/%s", k.Dataset, k.Version, orient, k.S, k.FP)
}

// attrs returns the attributes the delta patcher decides on. ok is
// false when a planner knob is unresolved — such keys are never minted
// (the service resolves before keying), and the ingest walk drops
// them, which is always sound.
func (k projKey) attrs() (a delta.KeyAttrs, ok bool) {
	a = delta.KeyAttrs{
		Dual:    k.Dual,
		S:       k.S,
		Exact:   k.FP.Exact,
		Relabel: k.FP.Relabel,
		Toplex:  k.FP.Toplex == core.ToplexOn,
		Squeeze: k.FP.Squeeze,
	}
	return a, k.FP.Relabel != hg.RelabelAuto && k.FP.Toplex != core.ToplexAuto
}

// measureKey extends a projection key with the measure identity: a
// measure hit is only possible where the projection key would hit, and
// a version bump invalidates both layers at once.
type measureKey struct {
	projKey
	Measure string
	// Params is the canonical parameter string
	// (measure.Params.CanonicalString).
	Params string
}

func newMeasureKey(pk projKey, m measure.Measure, p measure.Params) measureKey {
	return measureKey{projKey: pk, Measure: m.Name(), Params: p.CanonicalString()}
}

// String renders the spill-file name "projection-key/measure=NAME?PARAMS";
// like projKey.String it must not change.
func (k measureKey) String() string {
	return fmt.Sprintf("%s/measure=%s?%s", k.projKey, k.Measure, k.Params)
}
