package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"time"
	"unsafe"

	"hyperline"
	"hyperline/internal/core"
	"hyperline/internal/gen"
	"hyperline/internal/graph"
	"hyperline/internal/hg"
	"hyperline/internal/measure"
	"hyperline/internal/par"
	"hyperline/internal/toplex"
)

// batchSpec describes a closed-loop workload of cold hyperline.Execute
// calls, one caller, no cache.
type batchSpec struct {
	// inputs hypergraphs are generated per run; requests rotate over
	// them, so one run's figures average over several draws of the
	// input shape rather than resting on one. The count is odd, so the
	// median falls inside one input's cluster of latencies rather than
	// on the gap between two.
	inputs   int
	generate func(seed int64) *hg.Hypergraph
	s        []int
	// measures are cycled over requests; empty means projections only.
	measures []string
	cfg      func(workers int) core.PipelineConfig
	// refAlgo is the strategy the oracle pins, per s, to build the
	// reference answers by another route than the planner's.
	refAlgo core.Algorithm
	// tailP is the tail percentile: the highest of tailLadder that
	// leaves at least ten samples beyond it at the lowest sample count
	// this workload gave on a 2-vCPU box, so the tail stays the same
	// percentile on a slower stretch of the box.
	tailP float64
	// limit is the latency limit goodput_frac counts against.
	limit time.Duration
}

// singleS8 is the Fig-8 query: one s=8 line graph of a
// LiveJournal-shaped community hypergraph, planner defaults.
var singleS8 = batchSpec{
	inputs: 3,
	generate: func(seed int64) *hg.Hypergraph {
		return gen.Community(gen.CommunityConfig{
			Seed:              seed,
			NumVertices:       30000,
			NumCommunities:    3500,
			MeanCommunitySize: 10,
			MaxCommunitySize:  1200,
			EdgesPerCommunity: 4,
			Background:        4000,
			Bridge:            0.25,
		})
	},
	s: []int{8},
	cfg: func(workers int) core.PipelineConfig {
		return core.PipelineConfig{
			Core:   core.Config{Workers: workers, Relabel: hg.RelabelAuto},
			Toplex: core.ToplexAuto,
		}
	},
	refAlgo: core.AlgoSpGEMM,
	tailP:   0.7, // 39 to 54 samples: 11 to 16 beyond
	limit:   2 * time.Second,
}

// sweepMeasure is a five-value s-sweep plus a Stage-5 measure on an
// Email-shaped hypergraph (skewed, about 30% of hyperedges contained in
// another). Stage 2 is pinned on: the planner's sampled containment
// estimate sits near its 25% threshold on this shape, and a plan that
// flips with the seed would make runs incomparable.
var sweepMeasure = batchSpec{
	inputs: 3,
	generate: func(seed int64) *hg.Hypergraph {
		return gen.Zipf(gen.ZipfConfig{
			Seed:         seed,
			NumVertices:  4000,
			NumEdges:     4000,
			MeanEdgeSize: 2,
			Skew:         1.3,
			MaxEdgeSize:  150,
			HeadFlatten:  40,
		})
	},
	s: []int{2, 3, 4, 6, 8},
	// Pagerank takes two requests in three: with an even split the
	// median would sit on the gap between the two measures' costs.
	measures: []string{"pagerank", "pagerank", "components"},
	cfg: func(workers int) core.PipelineConfig {
		return core.PipelineConfig{
			Core:   core.Config{Workers: workers, Relabel: hg.RelabelAuto},
			Toplex: core.ToplexOn,
		}
	},
	refAlgo: core.AlgoHashmap,
	tailP:   0.6, // 28 to 44 samples: 11 to 17 beyond
	limit:   4 * time.Second,
}

// subSeed derives the seed of input i from the workload seed.
func subSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return int64(x >> 1)
}

// facadeOptions is the hyperline.Options spelling of a pipeline
// configuration, so Execute and the traced replay run the same query.
func facadeOptions(c core.PipelineConfig) hyperline.Options {
	return hyperline.Options{
		Algorithm:    c.Core.Algorithm,
		Partition:    c.Core.Partition,
		Relabel:      c.Core.Relabel,
		Workers:      c.Core.Workers,
		Grain:        c.Core.Grain,
		Counters:     c.Core.Store,
		ExactWeights: c.Core.DisableShortCircuit,
		Toplex:       c.Toplex == core.ToplexOn,
		ToplexAuto:   c.Toplex == core.ToplexAuto,
		NoSqueeze:    c.NoSqueeze,
	}
}

// parOptions mirrors the pipeline's Stage-4 and Stage-5 parallelism.
func parOptions(c core.Config) par.Options {
	return par.Options{Workers: c.Workers, Grain: c.Grain, Strategy: c.Partition}
}

// batch is one run's state: inputs, reference digests and samples.
type batch struct {
	spec   batchSpec
	opt    options
	cfg    core.PipelineConfig
	inputs []*hg.Hypergraph
	// ref[input][measure][s] is the reference digest of that answer.
	ref []map[string]map[int]uint64
}

// request is the i-th request of the closed loop.
func (b *batch) request(i int) (input int, meas string) {
	input = i % len(b.inputs)
	if len(b.spec.measures) > 0 {
		meas = b.spec.measures[(i/len(b.inputs))%len(b.spec.measures)]
	}
	return input, meas
}

func (b *batch) query(input int, meas string, cfg core.PipelineConfig) hyperline.Query {
	return hyperline.Query{Hypergraph: b.inputs[input], S: b.spec.s, Measure: meas, Options: facadeOptions(cfg)}
}

func runBatch(spec batchSpec, opt options) (*run, error) {
	ctx := context.Background()
	b := &batch{spec: spec, opt: opt, cfg: spec.cfg(opt.workers)}

	// Set-up: build the inputs and warm each with one query, five
	// times; the reported set-up time is the median.
	var setups []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		inputs := make([]*hg.Hypergraph, spec.inputs)
		for i := range inputs {
			inputs[i] = spec.generate(subSeed(opt.seed, i))
		}
		b.inputs = inputs
		for i := range inputs {
			if _, err := hyperline.Execute(ctx, b.query(i, "", b.cfg)); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := b.buildReferences(ctx); err != nil {
		return nil, err
	}

	r := &run{correct: true, metrics: map[string]float64{}, record: map[string]any{}}
	r.metrics["setup_s"] = median(setups)
	var inputs []map[string]any
	for _, h := range b.inputs {
		inputs = append(inputs, map[string]any{"m": h.NumEdges(), "n": h.NumVertices(), "incidences": h.Incidences()})
	}
	r.record["inputs"] = inputs
	r.record["s"] = spec.s
	r.record["measures"] = spec.measures
	r.record["workers"] = opt.workers
	r.record["tail_percentile"] = spec.tailP * 100
	r.record["latency_limit_ms"] = ms(spec.limit)

	if opt.trace {
		return r, b.traced(ctx, r)
	}
	rss := startRSS()
	lat, ok, elapsed := b.closedLoop(ctx, opt.seconds)
	r.metrics["peak_rss_mb"] = rss.finish()
	r.record["rss_reset"] = rss.reset
	b.endToEnd(r, lat, ok, elapsed)
	return r, nil
}

// endToEnd fills the end-to-end metrics from closed-loop samples.
func (b *batch) endToEnd(r *run, lat []float64, ok []bool, elapsed time.Duration) {
	good, within := 0, 0
	for i, l := range lat {
		if ok[i] {
			good++
			if l <= ms(b.spec.limit) {
				within++
			}
		}
	}
	r.attempted = len(lat)
	r.failed = len(lat) - good
	r.correct = r.failed == 0
	r.metrics["latency_p50_ms"] = median(lat)
	r.metrics["latency_tail_ms"] = quantile(lat, b.spec.tailP)
	r.metrics["throughput_qps"] = float64(good) / elapsed.Seconds()
	r.metrics["ok_frac"] = float64(good) / float64(max(len(lat), 1))
	r.metrics["goodput_frac"] = float64(within) / float64(max(len(lat), 1))
	r.record["samples"] = len(lat)
	r.record["tail_beyond"] = beyond(len(lat), b.spec.tailP)
	r.record["rule_percentile"] = tailPercentile(len(lat), tailLadder) * 100
}

// closedLoop runs untraced Execute calls back to back for d and
// returns each request's latency in ms (a failed request counts at
// least the latency limit), whether it was answered correctly, and the
// window's length.
func (b *batch) closedLoop(ctx context.Context, d time.Duration) ([]float64, []bool, time.Duration) {
	var lat []float64
	var ok []bool
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		input, meas := b.request(i)
		t0 := time.Now()
		qr, err := hyperline.Execute(ctx, b.query(input, meas, b.cfg))
		el := time.Since(t0)
		good := err == nil && b.check(input, meas, entriesOf(qr))
		l := ms(el)
		if !good {
			l = max(l, ms(b.spec.limit))
		}
		lat = append(lat, l)
		ok = append(ok, good)
	}
	return lat, ok, time.Since(start)
}

// answer is one per-s answer in the form the oracle checks.
type answer struct {
	s     int
	res   *core.PipelineResult
	value *measure.Value
}

func entriesOf(qr *hyperline.QueryResult) []answer {
	if qr == nil {
		return nil
	}
	out := make([]answer, len(qr.Entries))
	for i, e := range qr.Entries {
		out[i] = answer{s: e.S, res: e.Result}
		if e.Err != nil {
			out[i].res = nil
		}
		if e.Measure != nil {
			out[i].value = e.Measure.Value
		}
	}
	return out
}

// check compares every answer's digest with the reference.
func (b *batch) check(input int, meas string, got []answer) bool {
	if len(got) != len(b.spec.s) {
		return false
	}
	for _, a := range got {
		if a.res == nil || (meas != "" && a.value == nil) {
			return false
		}
		want, ok := b.ref[input][meas][a.s]
		if !ok || digest(a.res, a.value) != want {
			return false
		}
	}
	return true
}

// buildReferences computes every reference answer by another route:
// the same resolved Stage-1/2 knobs, but the strategy pinned to
// spec.refAlgo and one pipeline run per s.
func (b *batch) buildReferences(ctx context.Context) error {
	b.ref = make([]map[string]map[int]uint64, len(b.inputs))
	measures := append([]string{""}, b.spec.measures...)
	for i, h := range b.inputs {
		b.ref[i] = map[string]map[int]uint64{}
		rc := core.ResolveConfig(h, b.spec.s, b.cfg)
		rc.Stats = nil
		rc.Core.Algorithm = b.spec.refAlgo
		for _, s := range b.spec.s {
			out, err := core.RunBatch(ctx, h, []int{s}, rc)
			if err != nil {
				return fmt.Errorf("reference s=%d: %w", s, err)
			}
			res := out[s]
			for _, name := range measures {
				if b.ref[i][name] == nil {
					b.ref[i][name] = map[int]uint64{}
				}
				var v *measure.Value
				if name != "" {
					if v, err = computeMeasure(ctx, name, res, parOptions(rc.Core)); err != nil {
						return fmt.Errorf("reference %s s=%d: %w", name, s, err)
					}
				}
				b.ref[i][name][s] = digest(res, v)
			}
		}
	}
	return nil
}

func computeMeasure(ctx context.Context, name string, res *core.PipelineResult, popt par.Options) (*measure.Value, error) {
	m, err := measure.Get(name)
	if err != nil {
		return nil, err
	}
	p, err := measure.Canonicalize(m, nil)
	if err != nil {
		return nil, err
	}
	return m.Compute(ctx, res, p, popt)
}

// digestSeed keys every digest of one process; digests are compared
// only within a run.
var digestSeed = maphash.MakeSeed()

// digest hashes a projection byte for byte — its CSR arrays and its
// node-to-hyperedge mapping, which together fix the sorted (u, v, w)
// edge list — and the measure value, if any.
func digest(res *core.PipelineResult, v *measure.Value) uint64 {
	var h maphash.Hash
	h.SetSeed(digestSeed)
	off, adj, wgt, orig := res.Graph.CSR()
	writeInts(&h, off)
	writeInts(&h, adj)
	writeInts(&h, wgt)
	writeInts(&h, orig)
	writeInts(&h, res.HyperedgeIDs)
	writeValue(&h, v)
	return h.Sum64()
}

// writeValue hashes a measure value; nil hashes as nothing.
func writeValue(h *maphash.Hash, v *measure.Value) {
	if v == nil {
		return
	}
	if v.Scalar != nil {
		writeInts(h, []uint64{math.Float64bits(*v.Scalar)})
	}
	writeInts(h, v.Scores)
	writeInts(h, v.Ints)
	writeInts(h, []int64{int64(len(v.Groups))})
	for _, g := range v.Groups {
		writeInts(h, g)
	}
}

// writeInts hashes a slice's length and its raw bytes.
func writeInts[T int64 | uint64 | uint32 | int32 | float64](h *maphash.Hash, xs []T) {
	var n [8]byte
	*(*int64)(unsafe.Pointer(&n)) = int64(len(xs))
	h.Write(n[:])
	if len(xs) > 0 {
		h.Write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*int(unsafe.Sizeof(xs[0]))))
	}
}

// replayed is one replayed request's answers and work counts.
type replayed struct {
	answers []answer
	stats   core.Stats
	csrMB   float64
	// keptFrac is the share of hyperedges Stage 2 kept (0 without it).
	keptFrac float64
}

// replay runs one request as the stage calls core.RunBatch and Execute
// make, in their order, with a span around each call.
func (b *batch) replay(ctx context.Context, tr *tracer, req, input int, meas string) (*replayed, error) {
	h := b.inputs[input]
	sValues := b.spec.s
	root := tr.begin(req, -1, "request")
	defer tr.end(root)

	sp := tr.begin(req, root, "core.resolve")
	cfg := core.ResolveConfig(h, sValues, b.cfg)
	tr.end(sp)

	sp = tr.begin(req, root, "hg.preprocess")
	pre := hg.Preprocess(h, cfg.Core.Relabel)
	tr.end(sp)
	work, edgeOrig := pre.H, pre.EdgeOrig
	out := &replayed{}

	if cfg.Toplex.Enabled() {
		sp = tr.begin(req, root, "toplex.simplify")
		simplified, keep := toplex.Simplify(work)
		tr.end(sp)
		remapped := make([]uint32, len(keep))
		for newE, midE := range keep {
			remapped[newE] = edgeOrig[midE]
		}
		if work.NumEdges() > 0 {
			out.keptFrac = float64(len(keep)) / float64(work.NumEdges())
		}
		work, edgeOrig = simplified, remapped
	}

	sp = tr.begin(req, root, "core.plan")
	var st hg.Stats
	if cfg.Core.Algorithm == core.AlgoAuto || (cfg.Core.Algorithm == core.AlgoHashmap && len(core.DistinctS(sValues)) > 1) {
		if !cfg.Toplex.Enabled() && cfg.Stats != nil {
			st = *cfg.Stats
		} else {
			st = hg.ComputeStats("", work)
		}
	}
	dec := core.PlanQueryCosts(st, sValues, cfg.Core, cfg.Costs, cfg.Toplex.Enabled())
	tr.end(sp)

	sp = tr.begin(req, root, "core.overlap")
	lists, stats, err := dec.Strategy.Edges(ctx, work, sValues, dec.Config)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	out.stats = stats

	var csrBytes int64
	for _, s := range core.DistinctS(sValues) {
		sp = tr.begin(req, root, "graph.build")
		g := graph.BuildSorted(work.NumEdges(), lists[s], !cfg.NoSqueeze, parOptions(cfg.Core))
		tr.end(sp)
		res := &core.PipelineResult{S: s, Graph: g, Stats: stats, HyperedgeIDs: make([]uint32, g.NumNodes())}
		for node := range res.HyperedgeIDs {
			res.HyperedgeIDs[node] = edgeOrig[g.OrigID(uint32(node))]
		}
		off, adj, wgt, orig := g.CSR()
		csrBytes += int64(len(off))*8 + int64(len(adj)+len(wgt)+len(orig))*4
		out.answers = append(out.answers, answer{s: s, res: res})
	}
	out.csrMB = float64(csrBytes) / (1 << 20)
	if meas != "" {
		for i := range out.answers {
			sp = tr.begin(req, root, "measure."+meas)
			v, err := computeMeasure(ctx, meas, out.answers[i].res, parOptions(cfg.Core))
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			out.answers[i].value = v
		}
	}
	return out, nil
}

// stageNames are the replay's spans for the four stages StageTimings
// reports, in its field order.
var stageNames = [4]string{"hg.preprocess", "toplex.simplify", "core.overlap", "graph.build"}

const (
	// coverSlack is the share of the untraced median that may lie
	// outside every stage span beyond the tracing overhead: the
	// replay's own work between calls (ID remapping, CSR sizes).
	coverSlack = 0.02
	// stageGapLimit bounds, as a share of the untraced median, how far
	// a stage span may sit from the StageTimings of the same request's
	// untraced run (median over requests). On a 2-vCPU box the paired
	// difference of the parallel Stage-4 builds alone reached 0.027 over
	// 15 pairs, so the limit is about twice that noise; a span around the
	// wrong call moves its stage by the stage's whole size.
	stageGapLimit = 0.05
)

// timingsOf gathers a query's StageTimings in stageNames order: the
// shared stages from the first entry, Stage 4 summed over every s.
func timingsOf(qr *hyperline.QueryResult) [4]time.Duration {
	var t [4]time.Duration
	for i, e := range qr.Entries {
		st := e.Timings()
		if i == 0 {
			t[0], t[1], t[2] = st.Preprocess, st.Toplex, st.SOverlap
		}
		t[3] += st.Squeeze
	}
	return t
}

// traced runs the traced variant. Each request runs twice, back to
// back: as an untraced Execute call (the overhead baseline and the
// StageTimings to reconcile against) and replayed stage by stage under
// spans. Pairing the two keeps the box's drift out of the comparison.
// Both answers must match the reference, so the replay's graphs are
// byte-identical to Execute's.
func (b *batch) traced(ctx context.Context, r *run) error {
	type pair struct {
		req     int
		timings [4]time.Duration
	}
	tr := &tracer{}
	var (
		pairs                                     []pair
		untraced, traced, buildShare              []float64
		wedges, edgesOut, yield, imbalance, csrMB []float64
		keptFrac                                  []float64
		pagerankReqs, componentReqs               = map[int]bool{}, map[int]bool{}
		attempted, failed                         int
	)
	mem := startMemWindow()
	start := time.Now()
	for i := 0; time.Since(start) < b.opt.seconds; i++ {
		input, meas := b.request(i)
		attempted += 2
		var (
			el, tel time.Duration
			timings [4]time.Duration
			rp      *replayed
			okU     bool
			errT    error
		)
		execute := func() {
			t0 := time.Now()
			qr, err := hyperline.Execute(ctx, b.query(input, meas, b.cfg))
			el = time.Since(t0)
			if okU = err == nil && b.check(input, meas, entriesOf(qr)); okU {
				timings = timingsOf(qr)
			}
		}
		replay := func() {
			t0 := time.Now()
			rp, errT = b.replay(ctx, tr, i, input, meas)
			tel = time.Since(t0)
		}
		// The second run of a pair finds the heap the first one grew, so
		// the order alternates.
		if i%2 == 0 {
			execute()
			replay()
		} else {
			replay()
			execute()
		}
		okT := errT == nil && b.check(input, meas, rp.answers)
		if !okU {
			failed++
		}
		if !okT {
			failed++
		}
		if !okU || !okT {
			continue
		}
		pairs = append(pairs, pair{req: i, timings: timings})
		untraced = append(untraced, ms(el))
		traced = append(traced, ms(tel))
		buildShare = append(buildShare, float64(timings[3])/float64(el))
		switch meas {
		case "pagerank":
			pagerankReqs[i] = true
		case "components":
			componentReqs[i] = true
		}
		stats := rp.stats
		wedges = append(wedges, float64(stats.Wedges))
		edgesOut = append(edgesOut, float64(stats.Edges))
		if stats.Wedges > 0 {
			yield = append(yield, float64(stats.Edges)/float64(stats.Wedges))
		}
		imbalance = append(imbalance, wedgeImbalance(stats.WedgesPerWorker))
		csrMB = append(csrMB, rp.csrMB)
		keptFrac = append(keptFrac, rp.keptFrac)
	}
	alloc, pause, cycles := mem.finish(attempted)
	if len(pairs) == 0 {
		return fmt.Errorf("traced run: no request answered correctly (%d attempted)", attempted)
	}

	self := selfTimes(tr.snapshot())
	m := r.metrics
	m["hg.preprocess_ms"] = medianSelf(self, "hg.preprocess", nil)
	m["toplex.simplify_ms"] = medianSelf(self, "toplex.simplify", nil)
	m["toplex.kept_frac"] = median(keptFrac)
	m["core.plan_ms"] = medianSelf(self, "core.resolve", nil) + medianSelf(self, "core.plan", nil)
	m["core.overlap_ms"] = medianSelf(self, "core.overlap", nil)
	m["core.wedges"] = median(wedges)
	m["core.edges_out"] = median(edgesOut)
	m["core.edge_yield"] = median(yield)
	m["core.wedge_imbalance"] = median(imbalance)
	m["graph.build_ms"] = medianSelf(self, "graph.build", nil)
	m["graph.csr_mb"] = median(csrMB)
	m["measure.pagerank_ms"] = medianSelf(self, "measure.pagerank", pagerankReqs)
	m["measure.components_ms"] = medianSelf(self, "measure.components", componentReqs)
	m["runtime.alloc_mb_per_req"] = alloc
	m["runtime.gc_pause_ms"] = pause
	m["runtime.gc_cycles"] = cycles

	// Reconciliation. The stage spans' self times, the root's own time
	// left out, must add up to the untraced median to within the
	// tracing overhead, so a stage the replay misses shows. Each stage
	// span must agree with the StageTimings of its request's untraced
	// run.
	p50 := median(untraced)
	overhead := median(traced)/p50 - 1
	selfSum := median(stageSelfSums(self, "request"))
	gap, gaps := 0.0, map[string]float64{}
	for k, name := range stageNames {
		diffs := make([]float64, len(pairs))
		for j, p := range pairs {
			diffs[j] = ms(self[p.req][name] - p.timings[k])
		}
		gaps[name] = median(diffs) / p50
		gap = max(gap, math.Abs(gaps[name]))
	}
	m["trace.overhead_frac"] = overhead
	m["trace.self_sum_ms"] = selfSum
	m["trace.stage_gap_frac"] = gap
	var mismatches []string
	if off := math.Abs(selfSum/p50 - 1); off > math.Abs(overhead)+coverSlack {
		mismatches = append(mismatches, fmt.Sprintf("stage self times add up to %.4g ms against an untraced median of %.4g ms: off by %.3g, over the overhead %.3g plus %.2g", selfSum, p50, off, math.Abs(overhead), coverSlack))
	}
	if gap > stageGapLimit {
		mismatches = append(mismatches, fmt.Sprintf("a stage span is %.3g of the untraced median from its StageTimings, over %.2g", gap, stageGapLimit))
	}
	m["reconcile.mismatches"] = float64(len(mismatches))
	m["graph.build_share_wn"] = median(buildShare)
	share1, err := b.buildShareAt(ctx, 1)
	if err != nil {
		return err
	}
	m["graph.build_share_w1"] = share1

	r.attempted, r.failed = attempted, failed
	r.correct = failed == 0 && len(mismatches) == 0
	r.record["untraced_p50_ms"] = p50
	r.record["traced_p50_ms"] = median(traced)
	r.record["traced_requests"] = len(traced)
	r.record["stage_gaps_frac"] = gaps
	r.record["reconcile_failed"] = mismatches
	return nil
}

// buildShareAt runs two requests per input with the given worker count
// and returns the median share of Stage 4 (summed over s) in the
// query's wall time.
func (b *batch) buildShareAt(ctx context.Context, workers int) (float64, error) {
	cfg := b.spec.cfg(workers)
	var shares []float64
	for i := 0; i < 2*len(b.inputs); i++ {
		input := i % len(b.inputs)
		t0 := time.Now()
		qr, err := hyperline.Execute(ctx, b.query(input, "", cfg))
		total := time.Since(t0)
		if err != nil {
			return 0, err
		}
		var squeeze time.Duration
		for _, e := range qr.Entries {
			squeeze += e.Timings().Squeeze
		}
		shares = append(shares, float64(squeeze)/float64(total))
	}
	return median(shares), nil
}

// wedgeImbalance is the busiest worker's wedge count over the mean.
func wedgeImbalance(perWorker []int64) float64 {
	if len(perWorker) == 0 {
		return 0
	}
	var sum int64
	for _, w := range perWorker {
		sum += w
	}
	if sum == 0 {
		return 0
	}
	return float64(slices.Max(perWorker)) * float64(len(perWorker)) / float64(sum)
}
