package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/hg"
	"hyperline/internal/hgio"
	"hyperline/internal/measure"
)

// NewHandler returns the hyperlined HTTP/JSON API over svc:
//
//	GET    /healthz
//	GET    /v1/cache
//	GET    /v1/measures
//	GET    /v1/datasets
//	PUT    /v1/datasets/{name}?format=adj|pairs|bin   (body = dataset)
//	POST   /v1/datasets/{name}/load                   {"path": "..."}
//	GET    /v1/datasets/{name}
//	DELETE /v1/datasets/{name}
//	POST   /v1/datasets/{name}/warmup                 {"s": [..] | "lo:hi,..", "dual": bool, ...}
//	GET    /v1/datasets/{name}/costs
//	POST   /v2/query                                  (unified JSON query, see handleQueryV2)
//	POST   /v2/ingest                                 (streaming delta, see handleIngest)
//	GET    /v2/datasets/{name}/changes                (long-poll change feed, see handleChanges)
//	GET    /metrics
//
// POST /v2/query is the one query endpoint: projections (s-line or
// s-clique graphs) over an s-list, optionally with a Stage-5 measure
// per s. The /v1 routes administer datasets and caches; /v1/measures
// lists the measure registry (name, doc, cost, params).
//
// Every endpoint threads the request's context through the pipeline:
// client disconnects and per-request timeouts cancel the computation
// cooperatively (unless concurrent identical requests still wait on
// it), and an expired context answers 504.
//
// The "s" field of the query and warmup bodies accepts an integer
// array or an s-list: a comma-separated mix of values and inclusive
// lo:hi ranges, e.g. "1,4:6,12". The whole list is served as one
// batched planner-driven pass; uncached members share a single
// counting pass when the planner picks the ensemble. Both bodies take
// the option fields of optionsJSON, so a warmup pre-seeds exactly the
// keys the matching queries look up.
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /v1/cache", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"pipeline": svc.CacheStats(),
			"measures": svc.MeasureCacheStats(),
		})
	})
	mux.HandleFunc("GET /v1/measures", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, measure.Infos())
	})
	mux.HandleFunc("GET /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Datasets())
	})
	mux.HandleFunc("PUT /v1/datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		handleUpload(svc, w, r)
	})
	mux.HandleFunc("POST /v1/datasets/{name}/load", func(w http.ResponseWriter, r *http.Request) {
		handleLoad(svc, w, r)
	})
	mux.HandleFunc("GET /v1/datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		stats, err := svc.Stats(r.PathValue("name"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, stats)
	})
	mux.HandleFunc("DELETE /v1/datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		if !svc.Remove(r.PathValue("name")) {
			writeError(w, http.StatusNotFound, fmt.Errorf("serve: %w %q", ErrUnknownDataset, r.PathValue("name")))
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"removed": true})
	})
	mux.HandleFunc("POST /v1/datasets/{name}/warmup", func(w http.ResponseWriter, r *http.Request) {
		handleWarmup(svc, w, r)
	})
	mux.HandleFunc("GET /v1/datasets/{name}/costs", func(w http.ResponseWriter, r *http.Request) {
		handleCosts(svc, w, r)
	})
	mux.HandleFunc("POST /v2/query", func(w http.ResponseWriter, r *http.Request) {
		handleQueryV2(svc, w, r)
	})
	mux.HandleFunc("POST /v2/ingest", func(w http.ResponseWriter, r *http.Request) {
		handleIngest(svc, w, r)
	})
	mux.HandleFunc("GET /v2/datasets/{name}/changes", func(w http.ResponseWriter, r *http.Request) {
		handleChanges(svc, w, r)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		handleMetrics(svc, w, r)
	})
	// The response-code counter wraps every endpoint except /metrics
	// itself, so hyperline_http_responses_total reconciles exactly with
	// the traffic clients sent.
	return svc.metrics.instrument(mux)
}

// errStatus maps a service error to an HTTP status: requests shed by
// admission control are 429 (writeError adds the Retry-After header),
// cancelled or deadline-exceeded requests are 504 (the request context
// expired before the pipeline finished), unknown datasets are 404,
// everything else is a client error.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrUnknownDataset):
		return http.StatusNotFound
	case errors.Is(err, ErrVersionConflict):
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	var sat *SaturatedError
	if errors.As(err, &sat) {
		// Retry-After is whole seconds, rounded up so clients never
		// retry before the estimated drain.
		secs := int64((sat.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// clampWorkers bounds a client-supplied worker count: values beyond
// the machine's parallelism only cost memory (per-worker state is
// allocated eagerly), and the output is identical for any count, so
// capping is invisible to the client.
func clampWorkers(n int) int {
	if max := runtime.GOMAXPROCS(0); n > max {
		return max
	}
	return n
}

func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("serve: bad %s %q", name, v)
	}
	return n, nil
}

// maxUploadBytes caps PUT dataset bodies; datasets beyond this should
// be registered server-side via the /load endpoint.
const maxUploadBytes = 4 << 30

// MaxRequestBytes caps the JSON bodies of POST /v2/query, warmup, and
// load, and of the router endpoints that forward or register with
// them. A valid body names a dataset, an s-list, options, and measure
// parameters; a megabyte is far beyond any of them.
const MaxRequestBytes = 1 << 20

// BodyStatus maps a request-body decode error to its status: 413 when
// the body exceeded its http.MaxBytesReader bound, 400 otherwise.
func BodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func handleUpload(svc *Service, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	format := r.URL.Query().Get("format")
	body := http.MaxBytesReader(w, r.Body, maxUploadBytes)
	var err error
	var h *hg.Hypergraph
	switch format {
	case "", "adj":
		h, err = hgio.ReadAdjacency(body)
	case "pairs":
		h, err = hgio.ReadPairs(body)
	case "bin":
		h, err = hgio.ReadBinary(body)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown format %q (want adj, pairs, or bin)", format))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	svc.Add(name, h)
	stats, _ := svc.Stats(name)
	writeJSON(w, http.StatusOK, stats)
}

func handleLoad(svc *Service, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req struct {
		Path string `json:"path"`
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(&req)
	if err != nil || req.Path == "" {
		writeError(w, BodyStatus(err), fmt.Errorf("serve: body must be {\"path\": \"...\"}"))
		return
	}
	if err := svc.Load(name, req.Path); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	stats, _ := svc.Stats(name)
	writeJSON(w, http.StatusOK, stats)
}

func handleWarmup(svc *Service, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// "s" is either a JSON array of integers or an s-list string such
	// as "1,4:8".
	var req struct {
		S    json.RawMessage `json:"s"`
		Dual bool            `json:"dual"`
		optionsJSON
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(&req)
	if err != nil || len(req.S) == 0 {
		writeError(w, BodyStatus(err), fmt.Errorf("serve: body must be {\"s\": [..] or \"lo:hi\", ...}"))
		return
	}
	sweep, err := decodeSValues(req.S)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cfg, err := req.pipeline()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	computed, hot, err := svc.Warmup(r.Context(), name, req.Dual, sweep, cfg)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"computed":    computed,
		"already_hot": hot,
		"elapsed_ms":  float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// costCellJSON renders one calibration cell with human-readable knob
// names (the library form, core.CostObservation, carries typed enums).
type costCellJSON struct {
	Strategy   string  `json:"strategy"`
	Relabel    string  `json:"relabel"`
	Toplex     bool    `json:"toplex"`
	Multi      bool    `json:"multi"`
	PerSMS     float64 `json:"per_s_ms"`
	N          int64   `json:"n"`
	Calibrated bool    `json:"calibrated"`
}

func toCostCells(obs []core.CostObservation) []costCellJSON {
	out := make([]costCellJSON, len(obs))
	for i, o := range obs {
		name := o.Key.Algo.String()
		if st, err := core.StrategyFor(o.Key.Algo); err == nil {
			name = st.Name()
		}
		out[i] = costCellJSON{
			Strategy:   name,
			Relabel:    o.Key.Relabel.String(),
			Toplex:     o.Key.Toplex,
			Multi:      o.Key.Multi,
			PerSMS:     float64(o.PerS) / float64(time.Millisecond),
			N:          o.N,
			Calibrated: o.Calibrated,
		}
	}
	return out
}

// handleCosts serves GET /v1/datasets/{name}/costs: the
// self-calibrating planner's observed Stage-3 cost table for the
// dataset's current version, per orientation. Fresh (or freshly
// replaced) datasets report empty tables — calibration never survives
// a version bump.
func handleCosts(svc *Service, w http.ResponseWriter, r *http.Request) {
	info, err := svc.Calibration(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":    info.Name,
		"version": info.Version,
		"line":    toCostCells(info.Line),
		"clique":  toCostCells(info.Clique),
	})
}

// decodeSValues accepts the two body forms for "s": a JSON array of
// integers, or an s-list string ("1,4:8").
func decodeSValues(raw json.RawMessage) ([]int, error) {
	var list []int
	if err := json.Unmarshal(raw, &list); err == nil {
		if err := core.ValidateSValues(list); err != nil {
			return nil, err
		}
		return list, nil
	}
	var spec string
	if err := json.Unmarshal(raw, &spec); err == nil {
		return core.ParseSValues(spec)
	}
	return nil, fmt.Errorf("serve: \"s\" must be an integer array or an s-list string such as \"1,4:8\"")
}

// planJSON surfaces the executed plan — the Stage-3 strategy, the
// resolved preprocessing knobs, and their reasons — for observability.
type planJSON struct {
	Strategy string `json:"strategy"`
	Reason   string `json:"reason,omitempty"`
	// Relabel is the resolved Stage-1 order ("N", "A", or "D").
	Relabel string `json:"relabel,omitempty"`
	// Toplex reports whether Stage-2 simplification ran.
	Toplex bool `json:"toplex"`
	// KnobReason explains the planner's knob choices; empty when the
	// caller pinned them.
	KnobReason string `json:"knob_reason,omitempty"`
}

// toPlan maps a pipeline plan into its JSON form.
func toPlan(p core.PlanInfo) planJSON {
	return planJSON{
		Strategy:   p.Strategy,
		Reason:     p.Reason,
		Relabel:    p.Relabel,
		Toplex:     p.Toplex,
		KnobReason: p.KnobReason,
	}
}

type timingsJSON struct {
	Preprocess float64 `json:"preprocess"`
	Toplex     float64 `json:"toplex"`
	SOverlap   float64 `json:"soverlap"`
	Squeeze    float64 `json:"squeeze"`
	Total      float64 `json:"total"`
}

func toTimings(t core.StageTimings) timingsJSON {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return timingsJSON{
		Preprocess: ms(t.Preprocess),
		Toplex:     ms(t.Toplex),
		SOverlap:   ms(t.SOverlap),
		Squeeze:    ms(t.Squeeze),
		Total:      ms(t.Total()),
	}
}
