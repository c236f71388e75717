package core

import (
	"fmt"

	"hyperline/internal/hg"
)

// Fingerprint identifies the *output class* of a pipeline run: the
// options component of the serving layer's cache keys. It is a
// comparable value; String renders the form embedded in spill files.
type Fingerprint struct {
	// Exact is false only for short-circuiting Algorithm 1, whose
	// weights are ≥ s bounds rather than exact overlap counts.
	Exact   bool
	Relabel hg.RelabelOrder
	Toplex  ToplexMode
	Squeeze bool
}

// String renders the fingerprint as
// "class=exact|shortcircuit,relabel=N|A|D,toplex=false|true,squeeze=B".
// Spill files embed this form, so it must stay stable across releases.
func (f Fingerprint) String() string {
	class := "exact"
	if !f.Exact {
		class = "shortcircuit"
	}
	return fmt.Sprintf("class=%s,relabel=%s,toplex=%s,squeeze=%t", class, f.Relabel, f.Toplex, f.Squeeze)
}

// Fingerprint returns the canonical value identifying the *output class*
// of a pipeline run — the cache key component used by the serving layer
// to decide whether two requests may share a result.
//
// The key is canonicalized over output-equivalent configurations, not
// over raw option values. Every strategy — Algorithm 2, the ensemble,
// SpGEMM, the planner (AlgoAuto), and Algorithm 1 in exact mode
// (DisableShortCircuit) — produces byte-identical sorted edge lists
// with exact overlap weights, so they all share the "exact" class. The
// single exception is Algorithm 1 with short-circuiting (its default),
// whose weights are ≥ s bounds rather than exact counts: it gets its
// own class.
//
// The remaining output-relevant fields are relabel-by-degree (it
// permutes the squeezed node ID space), toplex simplification, and
// squeezing. Execution-only knobs — Workers, Grain, Partition, Store,
// and DisablePruning — are deliberately excluded: the edge-assembly
// pipeline guarantees byte-identical output for any worker count,
// workload distribution, or counter store, and pruning only skips
// hyperedges that cannot contribute edges. Requests that differ only in
// those knobs (or only in which exact-class strategy computes them)
// therefore share a cache entry.
// The planner-resolvable knobs (hg.RelabelAuto, ToplexAuto) must be
// resolved via ResolveConfig before fingerprinting: the serving layer
// does so at every entry point, which is what lets a planner-chosen
// configuration share a cache entry with the pinned configuration it
// resolves to (and split from the ones it does not). An unresolved
// auto knob fingerprints distinctly ("*" / "auto") rather than
// colliding with a concrete choice. The Stats, Costs, and KnobReason
// fields are execution hints and excluded.
func (c PipelineConfig) Fingerprint() Fingerprint {
	return Fingerprint{
		Exact:   c.Core.Algorithm != AlgoSetIntersection || c.Core.DisableShortCircuit,
		Relabel: c.Core.Relabel,
		Toplex:  c.Toplex,
		Squeeze: !c.NoSqueeze,
	}
}
