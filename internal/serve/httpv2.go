package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/measure"
)

// queryRequestJSON is the POST /v2/query body: the context-first
// unified query. "s" accepts a JSON integer array or an s-list string
// ("1,4:8"); "kind" is "line" (default) or "clique"; "timeout_ms"
// bounds this request via its context (independent of any server-wide
// -request-timeout, whichever expires first wins).
type queryRequestJSON struct {
	Dataset   string            `json:"dataset"`
	Kind      string            `json:"kind,omitempty"`
	S         json.RawMessage   `json:"s"`
	Measure   string            `json:"measure,omitempty"`
	Params    map[string]string `json:"params,omitempty"`
	Edges     bool              `json:"edges,omitempty"`
	TimeoutMS int               `json:"timeout_ms,omitempty"`
	// Priority is "interactive" (default) or "background": background
	// queries are shed instead of queued when admission control is
	// saturated, so bulk cache-seeding traffic yields to users.
	Priority string `json:"priority,omitempty"`
	optionsJSON
}

// optionsJSON holds the pipeline option fields shared by the
// POST /v2/query and warmup bodies. "config" is Table III notation,
// extended with "3", "A"/"auto", "S"/"spgemm", and '*' for a
// planner-chosen relabel order.
type optionsJSON struct {
	Config    string     `json:"config,omitempty"`
	Workers   int        `json:"workers,omitempty"`
	Toplex    toplexJSON `json:"toplex,omitempty"`
	NoSqueeze bool       `json:"nosqueeze,omitempty"`
	Exact     bool       `json:"exact,omitempty"`
}

// pipeline builds the pipeline configuration the options describe.
func (o optionsJSON) pipeline() (core.PipelineConfig, error) {
	var cfg core.PipelineConfig
	if o.Config != "" {
		c, err := core.ParseNotation(o.Config)
		if err != nil {
			return cfg, err
		}
		cfg.Core = c
	}
	if o.Workers < 0 {
		return cfg, fmt.Errorf("serve: bad workers %d", o.Workers)
	}
	cfg.Core.Workers = clampWorkers(o.Workers)
	cfg.Toplex = o.Toplex.mode
	cfg.NoSqueeze = o.NoSqueeze
	cfg.Core.DisableShortCircuit = o.Exact
	return cfg, nil
}

// toplexJSON accepts the two JSON spellings of the toplex knob: a
// boolean, or the string "auto" for the planner-resolved mode. The
// zero value (field omitted) is ToplexOff, the historical default.
type toplexJSON struct {
	mode core.ToplexMode
}

func (t *toplexJSON) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case "true":
		t.mode = core.ToplexOn
	case "false", "null":
		t.mode = core.ToplexOff
	case `"auto"`:
		t.mode = core.ToplexAuto
	default:
		return fmt.Errorf("serve: bad toplex %s (want true, false, or \"auto\")", b)
	}
	return nil
}

// queryEntryJSON is one per-s result of a v2 query. Exactly one of
// Error or the payload fields is meaningful; Error carries per-s
// failures (the rest of the sweep still answers).
type queryEntryJSON struct {
	S                int            `json:"s"`
	Error            string         `json:"error,omitempty"`
	Cached           bool           `json:"cached"`
	ProjectionCached bool           `json:"projection_cached,omitempty"`
	Nodes            int            `json:"nodes,omitempty"`
	Edges            int            `json:"edges,omitempty"`
	HyperedgeIDs     []uint32       `json:"hyperedge_ids,omitempty"`
	EdgeList         [][3]uint32    `json:"edge_list,omitempty"`
	Value            *measure.Value `json:"value,omitempty"`
	TimingsMS        *timingsJSON   `json:"timings_ms,omitempty"`
}

type queryResponseJSON struct {
	Dataset string `json:"dataset"`
	// Version is the dataset version the query was pinned to; streaming
	// clients use it to order answers across ingested deltas.
	Version   uint64           `json:"version"`
	Kind      string           `json:"kind"`
	Measure   string           `json:"measure,omitempty"`
	Plan      *planJSON        `json:"plan,omitempty"`
	ElapsedMS float64          `json:"elapsed_ms"`
	Results   []queryEntryJSON `json:"results"`
}

// handleQueryV2 serves POST /v2/query: one JSON Query in, ordered
// per-s entries (with per-s errors), the executed plan, and stage
// timings out. Edge lists are opt-in ("edges": true) — the default
// response carries the projection shape, mapping, and measure value
// only.
func handleQueryV2(svc *Service, w http.ResponseWriter, r *http.Request) {
	var req queryRequestJSON
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(&req); err != nil {
		writeError(w, BodyStatus(err), fmt.Errorf("serve: bad /v2/query body: %w", err))
		return
	}
	if req.Dataset == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: \"dataset\" is required"))
		return
	}
	var dual bool
	switch req.Kind {
	case "", "line":
		dual = false
	case "clique":
		dual = true
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown kind %q (want \"line\" or \"clique\")", req.Kind))
		return
	}
	if len(req.S) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: \"s\" is required (an integer array or an s-list string such as \"1,4:8\")"))
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
	var pri Priority
	switch req.Priority {
	case "", "interactive":
		pri = PriorityInteractive
	case "background":
		pri = PriorityBackground
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown priority %q (want \"interactive\" or \"background\")", req.Priority))
		return
	}

	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	start := time.Now()
	qr, err := svc.Query(ctx, QueryRequest{
		Dataset:  req.Dataset,
		Dual:     dual,
		S:        sweep,
		Cfg:      cfg,
		Measure:  req.Measure,
		Params:   req.Params,
		Priority: pri,
	})
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}

	resp := queryResponseJSON{
		Dataset:   req.Dataset,
		Version:   qr.Version,
		Kind:      kindString(dual),
		Measure:   req.Measure,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
		Results:   make([]queryEntryJSON, len(qr.Entries)),
	}
	if qr.Plan.Strategy != "" {
		plan := toPlan(qr.Plan)
		resp.Plan = &plan
	}
	for i, e := range qr.Entries {
		out := queryEntryJSON{S: e.S, Cached: e.Cached}
		if e.Err != nil {
			out.Error = e.Err.Error()
			resp.Results[i] = out
			continue
		}
		switch {
		case e.Measure != nil:
			out.ProjectionCached = e.Measure.ProjectionCached
			out.Nodes = e.Measure.Nodes
			out.Edges = e.Measure.Edges
			out.HyperedgeIDs = e.Measure.HyperedgeIDs
			out.Value = e.Measure.Value
		case e.Res != nil:
			out.Nodes = e.Res.Graph.NumNodes()
			out.Edges = e.Res.Graph.NumEdges()
			out.HyperedgeIDs = e.Res.HyperedgeIDs
		}
		if e.Res != nil {
			t := toTimings(e.Res.Timings)
			out.TimingsMS = &t
			if req.Edges {
				edges := e.Res.Graph.Edges()
				out.EdgeList = make([][3]uint32, len(edges))
				for j, ge := range edges {
					out.EdgeList[j] = [3]uint32{ge.U, ge.V, ge.W}
				}
			}
		}
		resp.Results[i] = out
	}
	// Per-s errors keep 200 while at least one entry answered, but a
	// sweep where *every* entry failed is a failed request: 502 lets
	// load balancers and load generators tell it from success without
	// parsing entries. (Per-s errors are upstream evaluation failures,
	// not client mistakes, hence the 502 class.)
	status := http.StatusOK
	if len(resp.Results) > 0 {
		allFailed := true
		for _, e := range resp.Results {
			if e.Error == "" {
				allFailed = false
				break
			}
		}
		if allFailed {
			status = http.StatusBadGateway
		}
	}
	writeJSON(w, status, resp)
}

// kindString renders the orientation the way the v2 API spells it.
func kindString(dual bool) string {
	if dual {
		return "clique"
	}
	return "line"
}
