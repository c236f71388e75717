package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"hyperline/internal/delta"
)

// ingestRequestJSON is the POST /v2/ingest body: a dataset name, an
// optional base version pin (0 or omitted = whatever is current), and
// the delta itself in the internal/delta wire shape.
type ingestRequestJSON struct {
	Dataset     string     `json:"dataset"`
	BaseVersion uint64     `json:"base_version,omitempty"`
	Inserts     [][]uint32 `json:"inserts,omitempty"`
	Deletes     []uint32   `json:"deletes,omitempty"`
}

// ingestResponseJSON is IngestResult plus wall time.
type ingestResponseJSON struct {
	IngestResult
	ElapsedMS float64 `json:"elapsed_ms"`
}

// MaxIngestBytes caps POST /v2/ingest bodies, here and at the router
// that fans them out; delta.MaxBatch already bounds the operation
// count, this bounds raw decode memory.
const MaxIngestBytes = 1 << 30

// handleIngest serves POST /v2/ingest: decode, apply, walk the caches,
// answer with the version transition and the cache outcomes. Version
// conflicts (a concurrent writer, or a stale base_version pin) are 409:
// the client re-reads the dataset and rebuilds its delta.
func handleIngest(svc *Service, w http.ResponseWriter, r *http.Request) {
	var req ingestRequestJSON
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxIngestBytes)).Decode(&req); err != nil {
		writeError(w, BodyStatus(err), fmt.Errorf("serve: bad /v2/ingest body: %w", err))
		return
	}
	if req.Dataset == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: \"dataset\" is required"))
		return
	}
	d := &delta.Delta{Inserts: req.Inserts, Deletes: req.Deletes}
	start := time.Now()
	res, err := svc.Ingest(r.Context(), req.Dataset, d, req.BaseVersion)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponseJSON{
		IngestResult: *res,
		ElapsedMS:    float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// defaultChangesTimeout bounds a long-poll with no explicit timeout_ms;
// maxChangesTimeout caps client-supplied ones so an idle poll can never
// pin a connection indefinitely.
const (
	defaultChangesTimeout = 30 * time.Second
	maxChangesTimeout     = 2 * time.Minute
)

// handleChanges serves GET /v2/datasets/{name}/changes?since=V: the
// long-poll change feed. The response carries the dataset's current
// version and every retained event past since; with nothing to report
// it blocks until an ingest lands or the timeout expires (an empty
// events list with the current version — poll again from there).
func handleChanges(svc *Service, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	since, err := intParam(r, "since", 0)
	if err != nil || since < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: \"since\" must be a version number"))
		return
	}
	timeoutMS, err := intParam(r, "timeout_ms", 0)
	if err != nil || timeoutMS < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad timeout_ms"))
		return
	}
	timeout := defaultChangesTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout > maxChangesTimeout {
		timeout = maxChangesTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	events, version, err := svc.Changes(ctx, name, uint64(since))
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	if events == nil {
		events = []ChangeEvent{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset": name,
		"version": version,
		"events":  events,
	})
}
