package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/delta"
	"hyperline/internal/gen"
	"hyperline/internal/hg"
	"hyperline/internal/hgio"
	"hyperline/internal/measure"
	"hyperline/internal/par"
	"hyperline/internal/serve"
)

// The serve-stream workload: an open loop at a fixed arrival rate
// against an in-process hyperlined handler over loopback HTTP. The
// traffic mix is that of the repository's recorded serving traffic,
// the hyperload run of BENCH_8.json ("-mix 16,3,0,1": sixteen sweeps,
// three single-s measure reads and one ingest in every twenty
// requests), drawn the way cmd/hyperload draws it, with s up to 4.
//
// The rate is an eighth of the capacity measured on a 2-vCPU box:
// offered BENCH_8's 150 requests/s, the service completed 128/s, with a
// median latency of 2.3 s from due time. Latency medians and tails of
// runs under different seeds spread by 16% to 100% of their median at
// 64 to 96 requests/s, where latency is mostly queueing that amplifies
// the box's speed drift, and by about 30% at 32 requests/s, where the
// median sits on the edge between memory hits and reads that wait
// behind a compute. At 16 requests/s the median is a memory hit and
// both spread by about 10%.
const (
	streamDataset = "fr"
	// streamRate is the arrival rate in requests per second.
	streamRate = 16.0
	// streamLimit is the latency limit goodput_frac counts against.
	streamLimit = 250 * time.Millisecond
	// streamTimeout fails a request this long after its due time.
	streamTimeout = 10 * time.Second
	// ingestEvery places a /v2/ingest delta at every 20th request; the
	// other nineteen are sweeps and measure reads weighted 16:3.
	ingestEvery = 20
	// streamSMax bounds the s values reads draw, and streamMeasure is
	// the measure that measure reads name (hyperload's default).
	streamSMax    = 4
	streamMeasure = "components"
	// oracleKeys is how many distinct (version, s, measure) answers the
	// oracle recomputes from scratch after the window.
	oracleKeys = 24
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps = 21

	// The memory tiers hold fewer entries than the four projections
	// and four measure values live at one dataset version, so memory
	// misses, spill writes and disk hits all occur.
	projEntries    = 3
	measureEntries = 3
	spillBudget    = 512 << 20
	// maxInflight admits one Stage-3 pass at a time, so a second
	// compute waits in the admission queue. The queue is deeper than
	// the connection count: a shed request would be a failed one, and
	// the benchmark's workloads must not fail. Overload shows instead as
	// requests waiting for a connection, which the latency from due time
	// counts.
	maxInflight = 1
	maxQueue    = 4
)

// friendsterShaped is the Friendster analog of internal/experiments
// (small maximum degrees, many communities) under the given seed.
func friendsterShaped(seed int64) *hg.Hypergraph {
	return gen.Community(gen.CommunityConfig{
		Seed:              seed,
		NumVertices:       60000,
		NumCommunities:    3000,
		MeanCommunitySize: 6,
		MaxCommunitySize:  120,
		EdgesPerCommunity: 3,
		Background:        8000,
	})
}

// template is one read shape: the s values and the measure, if any.
type template struct {
	S       []int  `json:"s"`
	Measure string `json:"measure,omitempty"`
}

// streamReq is one scheduled request.
type streamReq struct {
	body  []byte
	delta *delta.Delta // non-nil for an ingest
	tmpl  template
}

// mixBlock is the smallest run of requests that holds the traffic mix
// in exact proportion: 12 ingests, and 192 sweeps and 36 measure reads
// (16:3). A sweep's range has its ends drawn uniformly (lo in
// 1..streamSMax, hi in lo..streamSMax) and a measure read's s is drawn
// uniformly, as cmd/hyperload draws them; over 192 sweeps each range
// with lower end lo then occurs exactly 48/(streamSMax-lo+1) times.
const mixBlock = 240

// blockReads lists the reads of one mixBlock in a fixed order.
func blockReads() []template {
	var out []template
	for lo := 1; lo <= streamSMax; lo++ {
		for hi := lo; hi <= streamSMax; hi++ {
			var t template
			for s := lo; s <= hi; s++ {
				t.S = append(t.S, s)
			}
			for k := 0; k < 48/(streamSMax-lo+1); k++ {
				out = append(out, t)
			}
		}
	}
	for s := 1; s <= streamSMax; s++ {
		for k := 0; k < 9; k++ {
			out = append(out, template{S: []int{s}, Measure: streamMeasure})
		}
	}
	return out
}

// readOrderSeed fixes the order of the reads. Which keys the LRUs
// hold, and so how many reads go to disk or compute, depends on that
// order; with one order for every seed, runs under different seeds
// differ in the dataset and the deltas, not in their cache luck.
const readOrderSeed = 1

// schedule draws the run's requests. Every twentieth request is an
// insert delta drawn from the seed. The reads of each mixBlock are
// blockReads in a shuffled order that is the same for every seed.
func schedule(seed int64, n, vertices int) []streamReq {
	rng := rand.New(rand.NewSource(seed))
	order := rand.New(rand.NewSource(readOrderSeed))
	out := make([]streamReq, n)
	var reads []template
	for i := range out {
		if i%ingestEvery == ingestEvery-1 {
			d := drawDelta(rng, vertices)
			body, _ := json.Marshal(map[string]any{"dataset": streamDataset, "inserts": d.Inserts})
			out[i] = streamReq{body: body, delta: d}
			continue
		}
		if len(reads) == 0 {
			reads = blockReads()
			order.Shuffle(len(reads), func(a, b int) { reads[a], reads[b] = reads[b], reads[a] })
		}
		t := reads[0]
		reads = reads[1:]
		body, _ := json.Marshal(map[string]any{"dataset": streamDataset, "s": t.S, "measure": t.Measure})
		out[i] = streamReq{body: body, tmpl: t}
	}
	return out
}

// drawDelta builds an insert-only delta of one to three hyperedges of
// two to four vertices, hyperload's delta sizes. Each hyperedge's
// vertices lie near a random anchor, so inserts overlap existing
// hyperedges and exercise patching. Every vertex exists in the base, so
// the delta is valid at any version.
func drawDelta(rng *rand.Rand, vertices int) *delta.Delta {
	d := &delta.Delta{}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		anchor := rng.Intn(vertices)
		size := 2 + rng.Intn(3)
		seen := map[uint32]bool{}
		var edge []uint32
		for len(edge) < size {
			v := uint32((anchor + rng.Intn(4*size)) % vertices)
			if !seen[v] {
				seen[v] = true
				edge = append(edge, v)
			}
		}
		d.Inserts = append(d.Inserts, edge)
	}
	return d
}

// entryJSON and queryJSON decode the /v2/query response fields the
// benchmark checks.
type entryJSON struct {
	S                int    `json:"s"`
	Error            string `json:"error"`
	Cached           bool   `json:"cached"`
	ProjectionCached bool   `json:"projection_cached"`
	Nodes            int    `json:"nodes"`
	Edges            int    `json:"edges"`
	// The mapping and the value are kept as the bytes the server
	// encoded; the oracle encodes its own answers the same way.
	HyperedgeIDs json.RawMessage `json:"hyperedge_ids"`
	Value        json.RawMessage `json:"value"`
}

type queryJSON struct {
	Version uint64      `json:"version"`
	Results []entryJSON `json:"results"`
}

// answerKey names one answer the oracle can recompute.
type answerKey struct {
	version uint64
	s       int
	measure string
}

// ingestRec is one applied delta as the client saw it.
type ingestRec struct {
	d   *delta.Delta
	res serve.IngestResult
}

// streamServer is one hyperlined instance serving over loopback.
type streamServer struct {
	svc  *serve.Service
	srv  *http.Server
	url  string
	done chan struct{}
}

// startServer builds a service with the spill tier in spillDir, loads
// the dataset and serves it on a loopback port. With tr set, requests
// that carry a span header are timed by a wrapper around the handler.
func startServer(binPath, spillDir string, tr *tracer) (*streamServer, error) {
	svc := serve.New(serve.Config{
		CacheEntries:        projEntries,
		MeasureCacheEntries: measureEntries,
		MaxInflight:         maxInflight,
		MaxQueue:            maxQueue,
	})
	if err := svc.EnableSpill(spillDir, spillBudget); err != nil {
		return nil, err
	}
	if err := svc.Load(streamDataset, binPath); err != nil {
		return nil, err
	}
	handler := serve.NewHandler(svc)
	if tr != nil {
		handler = traceHandler(handler, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &streamServer{svc: svc, srv: &http.Server{Handler: handler}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// stop shuts the server down and waits for it to exit.
func (s *streamServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// traceHandler records an http.handler span for every request that
// carries the client's span header.
func traceHandler(inner http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		if err != nil {
			inner.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.Atoi(r.Header.Get("X-Bench-Req"))
		id := tr.begin(req, parent, "http.handler")
		inner.ServeHTTP(w, r)
		tr.end(id)
	})
}

// stream is one serve-stream run's client state.
type stream struct {
	srv    *streamServer
	client *http.Client
	reqs   []streamReq
	tr     *tracer
	// writeMu serializes ingests: each delta is built against whatever
	// version is current, so two in flight would race for the version.
	writeMu sync.Mutex

	mu         sync.Mutex
	codes      map[int]int
	projComp   int // per-s projections this client's requests computed
	measComp   int // measure values this client's requests computed
	computing  int // reads that computed at least one projection
	ingests    []ingestRec
	firstSeen  map[answerKey]uint64
	keyReqs    map[answerKey][]int
	class      map[int]string // request → "hit", "computed" or "ingest"
	inconsist  int
	roundTrips map[int]time.Duration
}

// traced reports whether request i gets spans: every other run of
// ingestEvery requests in a traced run. The untraced runs between them
// are the overhead baseline under the same load and the same mix; each
// run holds one ingest.
func (st *stream) traced(i int) bool { return st.tr != nil && (i/ingestEvery)%2 == 1 }

func (st *stream) post(ctx context.Context, i int, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.srv.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	root := -1
	if st.traced(i) {
		root = st.tr.begin(i, -1, "client")
		req.Header.Set("X-Bench-Req", strconv.Itoa(i))
		req.Header.Set("X-Bench-Span", strconv.Itoa(root))
	}
	t0 := time.Now()
	resp, err := st.client.Do(req)
	if err != nil {
		if root >= 0 {
			st.tr.end(root)
		}
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(t0)
	if root >= 0 {
		st.tr.end(root)
	}
	st.mu.Lock()
	st.codes[resp.StatusCode]++
	st.roundTrips[i] = rt
	st.mu.Unlock()
	return resp.StatusCode, data, err
}

// send issues request i and reports whether it was answered correctly
// as far as the client can tell; the oracle re-checks afterwards.
func (st *stream) send(ctx context.Context, i int) bool {
	rq := st.reqs[i]
	if rq.delta != nil {
		st.writeMu.Lock()
		defer st.writeMu.Unlock()
		code, data, err := st.post(ctx, i, "/v2/ingest", rq.body)
		if err != nil || code != http.StatusOK {
			return false
		}
		var res serve.IngestResult
		if json.Unmarshal(data, &res) != nil {
			return false
		}
		st.mu.Lock()
		st.ingests = append(st.ingests, ingestRec{d: rq.delta, res: res})
		st.class[i] = "ingest"
		st.mu.Unlock()
		return true
	}
	code, data, err := st.post(ctx, i, "/v2/query", rq.body)
	if err != nil || code != http.StatusOK {
		return false
	}
	var qr queryJSON
	if json.Unmarshal(data, &qr) != nil || len(qr.Results) != len(core.DistinctS(rq.tmpl.S)) {
		return false
	}
	return st.recordRead(i, rq.tmpl, &qr)
}

// recordRead files a read's answers: per-entry compute flags, and each
// answer's digest, which must match every other answer to the same
// (version, s, measure).
func (st *stream) recordRead(i int, t template, qr *queryJSON) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	ok := true
	computed, projection := false, false
	for _, e := range qr.Results {
		if e.Error != "" || (t.Measure != "" && len(e.Value) == 0) {
			ok = false
			continue
		}
		projComputed := !e.Cached
		if t.Measure != "" {
			projComputed = !e.ProjectionCached
			if !e.Cached {
				st.measComp++
				computed = true
			}
		}
		if projComputed {
			st.projComp++
			computed, projection = true, true
		}
		k := answerKey{version: qr.Version, s: e.S, measure: t.Measure}
		d := digestAnswer(e.Nodes, e.Edges, e.HyperedgeIDs, e.Value)
		if first, seen := st.firstSeen[k]; !seen {
			st.firstSeen[k] = d
		} else if first != d {
			st.inconsist++
			ok = false
		}
		st.keyReqs[k] = append(st.keyReqs[k], i)
	}
	if computed {
		st.class[i] = "computed"
	} else {
		st.class[i] = "hit"
	}
	// A read that computed a projection ran one admitted Stage-3 pass.
	if projection {
		st.computing++
	}
	return ok
}

// digestAnswer hashes the parts of an answer the API returns: the
// projection's shape and the JSON encodings of its node-to-hyperedge
// mapping and of the measure value.
func digestAnswer(nodes, edges int, ids, value json.RawMessage) uint64 {
	var h maphash.Hash
	h.SetSeed(digestSeed)
	writeInts(&h, []int64{int64(nodes), int64(edges), int64(len(ids))})
	h.Write(ids)
	h.Write(value)
	return h.Sum64()
}

// encodeAnswer encodes a recomputed answer's mapping and value as the
// /v2/query handler does; empty fields are omitted there, so they
// encode as nothing here.
func encodeAnswer(ids []uint32, v *measure.Value) (json.RawMessage, json.RawMessage, error) {
	var rawIDs, rawValue json.RawMessage
	var err error
	if len(ids) > 0 {
		if rawIDs, err = json.Marshal(ids); err != nil {
			return nil, nil, err
		}
	}
	if v != nil {
		if rawValue, err = json.Marshal(v); err != nil {
			return nil, nil, err
		}
	}
	return rawIDs, rawValue, nil
}

func runStream(opt options) (*run, error) {
	ctx := context.Background()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(".bench_build", "stream-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	base := friendsterShaped(subSeed(opt.seed, 0))
	binPath := filepath.Join(work, "fr.bin")
	if err := hgio.SaveFile(binPath, base); err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxConnsPerHost: opt.workers, MaxIdleConnsPerHost: opt.workers, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	var tr *tracer
	if opt.trace {
		tr = &tracer{}
	}
	// Set-up, setupReps times: service start, spill attach, dataset
	// load, handler, listener, and one cold read per s. One takes about
	// a tenth of a second, so many repetitions are cheap, and their
	// median is steady.
	var (
		setups []float64
		srv    *streamServer
		v0     uint64
	)
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		srv, err = startServer(binPath, filepath.Join(work, fmt.Sprintf("spill-%d", rep)), tr)
		if err != nil {
			return nil, err
		}
		if v0, err = warmUp(ctx, client, srv.url); err != nil {
			srv.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()

	loop := openLoop{Rate: streamRate, Duration: opt.seconds, Conns: opt.workers, Timeout: streamTimeout}
	st := &stream{
		srv: srv, client: client, tr: tr,
		reqs:  schedule(subSeed(opt.seed, 1), loop.n(), base.NumVertices()),
		codes: map[int]int{}, firstSeen: map[answerKey]uint64{}, keyReqs: map[answerKey][]int{},
		class: map[int]string{}, roundTrips: map[int]time.Duration{},
	}
	before, err := snapshotServer(client, srv)
	if err != nil {
		return nil, err
	}

	rss := startRSS()
	mem := startMemWindow()
	t0 := time.Now()
	outs := loop.run(ctx, st.send)
	runTime := time.Since(t0)
	alloc, pause, cycles := mem.finish(len(outs))
	peak := rss.finish()

	after, err := snapshotServer(client, srv)
	if err != nil {
		return nil, err
	}
	checked, wrong, err := st.oracle(ctx, base, v0, opt.seed)
	if err != nil {
		return nil, err
	}
	for _, i := range wrong {
		outs[i].OK = false
		outs[i].Latency = max(outs[i].Latency, loop.Timeout)
	}

	// The schedule's length is fixed by the rate and the window, so the
	// tail percentile is the rule's at that length.
	tailP := tailPercentile(loop.n(), tailLadder)
	sum := summarize(outs, tailP, streamLimit)
	r := &run{metrics: map[string]float64{}, record: map[string]any{}}
	r.attempted, r.failed = sum.Attempted, sum.Attempted-sum.OK
	r.correct = r.failed == 0
	m := r.metrics
	m["setup_s"] = median(setups)
	m["latency_p50_ms"] = ms(sum.P50)
	m["latency_tail_ms"] = ms(sum.Tail)
	m["throughput_qps"] = float64(sum.OK) / runTime.Seconds()
	m["ok_frac"] = float64(sum.OK) / float64(max(sum.Attempted, 1))
	m["goodput_frac"] = float64(sum.WithinLimit) / float64(max(sum.Attempted, 1))
	m["peak_rss_mb"] = peak
	m["generator.late_tail_ms"] = ms(sum.LateTail)
	m["runtime.alloc_mb_per_req"] = alloc
	m["runtime.gc_pause_ms"] = pause
	m["runtime.gc_cycles"] = cycles

	r.record["inputs"] = []map[string]any{{"m": base.NumEdges(), "n": base.NumVertices(), "incidences": base.Incidences()}}
	r.record["rate_per_s"] = streamRate
	r.record["connections"] = opt.workers
	r.record["tail_percentile"] = tailP * 100
	r.record["tail_beyond"] = sum.TailBeyond
	r.record["latency_limit_ms"] = ms(streamLimit)
	r.record["late_tail_ms"] = ms(sum.LateTail)
	r.record["latency_deciles_ms"] = deciles(outs)
	r.record["rss_reset"] = rss.reset
	r.record["cache_entries"] = map[string]int{"projection": projEntries, "measure": measureEntries, "max_inflight": maxInflight, "max_queue": maxQueue}
	r.record["spill_budget_bytes"] = spillBudget
	r.record["versions"] = len(st.ingests) + 1
	r.record["oracle_checked"] = checked
	r.record["oracle_wrong_requests"] = len(wrong)
	r.record["inconsistent_answers"] = st.inconsist
	r.record["codes"] = st.codes

	mismatches := st.reconcile(before, after, r.record)
	st.layerMetrics(m, before, after, outs)
	m["reconcile.mismatches"] = float64(len(mismatches))
	if opt.trace && len(mismatches) > 0 {
		r.correct = false
	}
	return r, nil
}

// deciles lists the 10th to 90th and the 95th and 99th percentiles of
// latency in ms.
func deciles(outs []outcome) []float64 {
	lat := make([]float64, len(outs))
	for i, o := range outs {
		lat[i] = ms(o.Latency)
	}
	var out []float64
	for _, p := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99} {
		out = append(out, quantile(lat, p))
	}
	return out
}

// warmUp sends one cold single-s read per s and returns the dataset
// version they were answered at.
func warmUp(ctx context.Context, client *http.Client, url string) (uint64, error) {
	var version uint64
	for s := 1; s <= 4; s++ {
		body, _ := json.Marshal(map[string]any{"dataset": streamDataset, "s": []int{s}})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v2/query", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		var qr queryJSON
		err = json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("warm-up s=%d: status %d: %v", s, resp.StatusCode, err)
		}
		version = qr.Version
	}
	return version, nil
}

// oracle recomputes a seeded sample of distinct answers from scratch:
// a model hypergraph replays the client's deltas through delta.Apply in
// version order, and core.RunBatch plus the measure produce each
// sampled answer at its version. It returns how many answers it
// checked and every request that returned a wrong one.
func (st *stream) oracle(ctx context.Context, base *hg.Hypergraph, v0 uint64, seed int64) (int, []int, error) {
	keys := make([]answerKey, 0, len(st.firstSeen))
	for k := range st.firstSeen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.version != b.version {
			return a.version < b.version
		}
		if a.s != b.s {
			return a.s < b.s
		}
		return a.measure < b.measure
	})
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > oracleKeys {
		keys = keys[:oracleKeys]
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].version < keys[j].version })

	ingests := append([]ingestRec(nil), st.ingests...)
	sort.Slice(ingests, func(i, j int) bool { return ingests[i].res.OldVersion < ingests[j].res.OldVersion })
	h, version, next := base, v0, 0
	var wrong []int
	for _, k := range keys {
		for next < len(ingests) && ingests[next].res.Version <= k.version {
			rec := ingests[next]
			if rec.res.OldVersion != version {
				return 0, nil, fmt.Errorf("oracle: delta to version %d was based on %d, model is at %d", rec.res.Version, rec.res.OldVersion, version)
			}
			d := &delta.Delta{Inserts: rec.d.Inserts, Deletes: rec.d.Deletes}
			var err error
			if h, err = delta.Apply(h, d); err != nil {
				return 0, nil, fmt.Errorf("oracle: replaying delta: %w", err)
			}
			version = rec.res.Version
			next++
		}
		if version != k.version {
			return 0, nil, fmt.Errorf("oracle: no delta chain reaches version %d", k.version)
		}
		out, err := core.RunBatch(ctx, h, []int{k.s}, core.PipelineConfig{})
		if err != nil {
			return 0, nil, err
		}
		res := out[k.s]
		e := &serve.MeasureEntry{Nodes: res.Graph.NumNodes(), Edges: res.Graph.NumEdges(), HyperedgeIDs: res.HyperedgeIDs}
		if k.measure != "" {
			v, err := computeMeasure(ctx, k.measure, res, par.Options{})
			if err != nil {
				return 0, nil, err
			}
			e = serve.NewMeasureEntry(res, v)
		}
		ids, value, err := encodeAnswer(e.HyperedgeIDs, e.Value)
		if err != nil {
			return 0, nil, err
		}
		if st.firstSeen[k] != digestAnswer(e.Nodes, e.Edges, ids, value) {
			wrong = append(wrong, st.keyReqs[k]...)
		}
	}
	return len(keys), wrong, nil
}

// serverStats is a snapshot of every counter the service exposes,
// through its Go API and through /metrics.
type serverStats struct {
	cache   serve.CacheStats
	mcache  serve.MeasureCacheStats
	spill   serve.SpillStats
	adm     serve.AdmissionStats
	metrics map[string]float64
}

func snapshotServer(client *http.Client, s *streamServer) (serverStats, error) {
	st := serverStats{
		cache:  s.svc.CacheStats(),
		mcache: s.svc.MeasureCacheStats(),
		spill:  s.svc.SpillStats(),
		adm:    s.svc.AdmissionStats(),
	}
	resp, err := client.Get(s.url + "/metrics")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	st.metrics = map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			st.metrics[line[:i]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	if len(st.metrics) == 0 {
		return st, errors.New("empty /metrics exposition")
	}
	return st, nil
}

// reconcile checks that the client's counts over the window equal the
// service's counter deltas, and that /metrics equals the Go stats API,
// exactly. It returns the names of the identities that failed and
// records them.
func (st *stream) reconcile(before, after serverStats, record map[string]any) []string {
	d := func(name string) float64 { return after.metrics[name] - before.metrics[name] }
	ingests := st.ingestTotals()
	a := after
	checks := []struct {
		name      string
		got, want float64
	}{
		// Client counts against counter deltas.
		{"http 200s", d(`hyperline_http_responses_total{code="200"}`), float64(st.codes[http.StatusOK])},
		{"projection computes", d("hyperline_projection_computes_total"), float64(st.projComp)},
		{"measure computes", d("hyperline_measure_computes_total"), float64(st.measComp)},
		{"admitted", float64(a.adm.AdmittedInteractive - before.adm.AdmittedInteractive), float64(st.computing)},
		{"shed", float64(a.adm.ShedInteractive - before.adm.ShedInteractive), float64(st.codes[http.StatusTooManyRequests])},
		{"ingests applied", d("hyperline_ingest_applied_total"), float64(len(st.ingests))},
		{"ingest migrated", d(`hyperline_ingest_projection_outcomes_total{outcome="migrated"}`), float64(ingests.Migrated)},
		{"ingest patched", d(`hyperline_ingest_projection_outcomes_total{outcome="patched"}`), float64(ingests.Patched)},
		{"ingest dropped", d(`hyperline_ingest_projection_outcomes_total{outcome="dropped"}`), float64(ingests.Dropped)},
		{"ingest measures migrated", d(`hyperline_ingest_measure_outcomes_total{outcome="migrated"}`), float64(ingests.MeasuresMigrated)},
		{"ingest measures dropped", d(`hyperline_ingest_measure_outcomes_total{outcome="dropped"}`), float64(ingests.MeasuresDropped)},
		// /metrics against the Go stats API, at the end of the run.
		{"projection hits", a.metrics["hyperline_projection_cache_hits_total"], float64(a.cache.Hits)},
		{"projection misses", a.metrics["hyperline_projection_cache_misses_total"], float64(a.cache.Misses)},
		{"projection evictions", a.metrics["hyperline_projection_cache_evictions_total"], float64(a.cache.Evictions)},
		{"projection disk hits", a.metrics["hyperline_projection_cache_disk_hits_total"], float64(a.cache.DiskHits)},
		{"measure hits", a.metrics["hyperline_measure_cache_hits_total"], float64(a.mcache.Hits)},
		{"measure misses", a.metrics["hyperline_measure_cache_misses_total"], float64(a.mcache.Misses)},
		{"measure computes total", a.metrics["hyperline_measure_computes_total"], float64(a.mcache.Computes)},
		{"spill writes", a.metrics["hyperline_spill_writes_total"], float64(a.spill.Writes)},
		{"spill errors", a.metrics["hyperline_spill_errors_total"], float64(a.spill.Errors)},
		{"admission queued", a.metrics["hyperline_admission_queued_total"], float64(a.adm.Queued)},
		{"admission admitted", a.metrics[`hyperline_admission_admitted_total{priority="interactive"}`], float64(a.adm.AdmittedInteractive)},
		// The spill store's own counters against the two tiers above it.
		{"spill hits", float64(a.spill.Hits), float64(a.cache.DiskHits + a.mcache.DiskHits)},
		{"spill misses", float64(a.spill.Misses), float64(a.cache.DiskMisses + a.mcache.DiskMisses)},
	}
	var failed []string
	for _, c := range checks {
		if c.got != c.want {
			failed = append(failed, fmt.Sprintf("%s: server %g, expected %g", c.name, c.got, c.want))
		}
	}
	record["reconcile_checks"] = len(checks)
	record["reconcile_failed"] = failed
	return failed
}

// ingestTotals sums the cache outcomes of every applied delta.
func (st *stream) ingestTotals() serve.IngestResult {
	var t serve.IngestResult
	for _, rec := range st.ingests {
		t.Migrated += rec.res.Migrated
		t.Patched += rec.res.Patched
		t.Dropped += rec.res.Dropped
		t.MeasuresMigrated += rec.res.MeasuresMigrated
		t.MeasuresDropped += rec.res.MeasuresDropped
	}
	return t
}

// layerMetrics fills the serving-layer metrics: counter deltas over the
// window, and span times from the traced requests.
func (st *stream) layerMetrics(m map[string]float64, before, after serverStats, outs []outcome) {
	frac := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	hits := after.cache.Hits - before.cache.Hits
	misses := after.cache.Misses - before.cache.Misses
	m["serve.mem_hit_frac"] = frac(hits, hits+misses)
	m["serve.disk_hit_frac"] = frac(after.cache.DiskHits-before.cache.DiskHits, misses)
	mh := after.mcache.Hits - before.mcache.Hits
	m["serve.measure_hit_frac"] = frac(mh, mh+after.mcache.Misses-before.mcache.Misses)
	m["serve.computes"] = after.metrics["hyperline_projection_computes_total"] - before.metrics["hyperline_projection_computes_total"]
	sf := `hyperline_singleflight_dedups_total{flight="projection"}`
	msf := `hyperline_singleflight_dedups_total{flight="measure"}`
	m["serve.sf_joins"] = after.metrics[sf] - before.metrics[sf] + after.metrics[msf] - before.metrics[msf]
	m["serve.queued"] = float64(after.adm.Queued - before.adm.Queued)
	m["serve.shed"] = float64(after.adm.ShedInteractive + after.adm.ShedBackground - before.adm.ShedInteractive - before.adm.ShedBackground)
	m["serve.spill_writes"] = float64(after.spill.Writes - before.spill.Writes)

	sums := st.ingestTotals()
	kept := int64(sums.Migrated + sums.Patched)
	m["delta.migrated"] = float64(sums.Migrated)
	m["delta.patched"] = float64(sums.Patched)
	m["delta.dropped"] = float64(sums.Dropped)
	m["delta.keep_frac"] = frac(kept, kept+int64(sums.Dropped))

	if st.tr == nil {
		return
	}
	spans := st.tr.snapshot()
	handler := map[int]time.Duration{}
	for _, s := range spans {
		if s.Name == "http.handler" {
			handler[s.Req] = s.End.Sub(s.Start)
		}
	}
	var all, hit, computed, ingest, transport []float64
	for req, h := range handler {
		all = append(all, ms(h))
		switch st.class[req] {
		case "hit":
			hit = append(hit, ms(h))
		case "computed":
			computed = append(computed, ms(h))
		case "ingest":
			ingest = append(ingest, ms(h))
		}
		if rt, ok := st.roundTrips[req]; ok {
			transport = append(transport, ms(rt-h))
		}
	}
	m["http.handler_ms"] = median(all)
	m["http.transport_ms"] = median(transport)
	m["serve.hit_ms"] = median(hit)
	m["serve.computed_ms"] = median(computed)
	m["delta.ingest_ms"] = median(ingest)

	m["trace.self_sum_ms"] = median(stageSelfSums(selfTimes(spans), "client"))
	var untraced, traced []float64
	for i, o := range outs {
		if !st.traced(i) {
			untraced = append(untraced, float64(o.Latency))
		} else {
			traced = append(traced, float64(o.Latency))
		}
	}
	if p := median(untraced); p > 0 {
		m["trace.overhead_frac"] = median(traced)/p - 1
	}
}
