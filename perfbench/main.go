// Command perfbench is the hyperline benchmark: it runs one named
// workload against the system's public entry points, checks every
// answer against an oracle, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics from a traced run) as the last
// line of standard output.
//
//	perfbench --workload single-s8 --seed 1 --seconds 25 --trace 0
//
// Inputs are generated from --seed with internal/gen. A line before the
// result records the run's environment and input sizes. See README.md
// for the workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// units names the unit of every metric the benchmark can print.
var units = map[string]string{
	// End to end.
	"latency_p50_ms":  "ms",
	"latency_tail_ms": "ms",
	"throughput_qps":  "1/s",
	"ok_frac":         "fraction",
	"goodput_frac":    "fraction",
	"peak_rss_mb":     "MiB",
	"setup_s":         "s",

	// Per layer.
	"hg.preprocess_ms":         "ms",
	"toplex.simplify_ms":       "ms",
	"toplex.kept_frac":         "fraction",
	"core.plan_ms":             "ms",
	"core.overlap_ms":          "ms",
	"core.wedges":              "count",
	"core.edges_out":           "count",
	"core.edge_yield":          "ratio",
	"core.wedge_imbalance":     "ratio",
	"graph.build_ms":           "ms",
	"graph.csr_mb":             "MiB",
	"graph.build_share_w1":     "fraction",
	"graph.build_share_wn":     "fraction",
	"measure.pagerank_ms":      "ms",
	"measure.components_ms":    "ms",
	"serve.mem_hit_frac":       "fraction",
	"serve.disk_hit_frac":      "fraction",
	"serve.measure_hit_frac":   "fraction",
	"serve.computes":           "count",
	"serve.sf_joins":           "count",
	"serve.queued":             "count",
	"serve.shed":               "count",
	"serve.spill_writes":       "count",
	"serve.hit_ms":             "ms",
	"serve.computed_ms":        "ms",
	"delta.ingest_ms":          "ms",
	"delta.migrated":           "count",
	"delta.patched":            "count",
	"delta.dropped":            "count",
	"delta.keep_frac":          "fraction",
	"http.handler_ms":          "ms",
	"http.transport_ms":        "ms",
	"runtime.alloc_mb_per_req": "MiB",
	"runtime.gc_pause_ms":      "ms",
	"runtime.gc_cycles":        "count",
	"generator.late_tail_ms":   "ms",
	"trace.overhead_frac":      "fraction",
	"trace.self_sum_ms":        "ms",
	"trace.stage_gap_frac":     "fraction",
	"reconcile.mismatches":     "count",
}

// endToEnd lists the metrics of an untraced run.
var endToEnd = []string{"latency_p50_ms", "latency_tail_ms", "throughput_qps", "ok_frac", "goodput_frac", "peak_rss_mb", "setup_s"}

// run is what a workload hands back: the answer counts, the metrics it
// measured, and diagnostics for the record line.
type run struct {
	attempted, failed int
	correct           bool
	metrics           map[string]float64
	record            map[string]any
}

// options are the command-line settings shared by every workload.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workers int
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: single-s8, sweep-measure or serve-stream")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()

	opt := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, workers: runtime.NumCPU()}
	var (
		r   *run
		err error
	)
	switch *workload {
	case "single-s8":
		r, err = runBatch(singleS8, opt)
	case "sweep-measure":
		r, err = runBatch(sweepMeasure, opt)
	case "serve-stream":
		r, err = runStream(opt)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	r.record["workload"] = *workload
	r.record["seed"] = *seed
	r.record["seconds"] = *seconds
	r.record["trace"] = opt.trace
	r.record["nproc"] = runtime.NumCPU()
	r.record["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.record["cpu"] = cpuModel()
	r.record["go"] = runtime.Version()
	rec, _ := json.Marshal(map[string]any{"record": r.record})
	fmt.Println(string(rec))

	names := endToEnd
	if opt.trace {
		names = perLayer
	}
	out := resultJSON{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for _, name := range names {
		out.Metrics[name] = metricJSON{Value: r.metrics[name], Unit: units[name]}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// perLayer lists the metrics of a traced run: every unit except the
// end-to-end ones.
var perLayer = func() []string {
	e2e := map[string]bool{}
	for _, n := range endToEnd {
		e2e[n] = true
	}
	var out []string
	for n := range units {
		if !e2e[n] {
			out = append(out, n)
		}
	}
	return out
}()
