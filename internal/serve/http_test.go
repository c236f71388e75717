package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/hgio"
)

// paperAdjacency is the running example in adjacency format.
const paperAdjacency = "0 1 2\n1 2 3\n0 1 2 3 4\n4 5\n"

func newTestServer(t *testing.T) (*httptest.Server, *Service) {
	t.Helper()
	svc := New(Config{})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

func do(t *testing.T, method, url string, body io.Reader, wantStatus int, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
}

func uploadPaper(t *testing.T, ts *httptest.Server) {
	t.Helper()
	do(t, http.MethodPut, ts.URL+"/v1/datasets/paper",
		strings.NewReader(paperAdjacency), http.StatusOK, nil)
}

func TestHTTPHealthAndCache(t *testing.T) {
	ts, _ := newTestServer(t)
	var health map[string]bool
	do(t, http.MethodGet, ts.URL+"/healthz", nil, http.StatusOK, &health)
	if !health["ok"] {
		t.Fatal("health endpoint not ok")
	}
	var stats struct {
		Pipeline CacheStats        `json:"pipeline"`
		Measures MeasureCacheStats `json:"measures"`
	}
	do(t, http.MethodGet, ts.URL+"/v1/cache", nil, http.StatusOK, &stats)
	if stats.Pipeline.Capacity != DefaultCacheEntries {
		t.Fatalf("bad pipeline cache stats %+v", stats.Pipeline)
	}
	if stats.Measures.Capacity != DefaultMeasureCacheEntries {
		t.Fatalf("bad measure cache stats %+v", stats.Measures)
	}
}

func TestHTTPUploadFormatsAndList(t *testing.T) {
	ts, _ := newTestServer(t)
	// adjacency (default format)
	uploadPaper(t, ts)
	// pairs
	pairs := "0 0\n0 1\n1 1\n1 2\n"
	do(t, http.MethodPut, ts.URL+"/v1/datasets/p?format=pairs",
		strings.NewReader(pairs), http.StatusOK, nil)
	// binary
	var bin bytes.Buffer
	if err := hgio.WriteBinary(&bin, paperExample()); err != nil {
		t.Fatal(err)
	}
	do(t, http.MethodPut, ts.URL+"/v1/datasets/b?format=bin", &bin, http.StatusOK, nil)
	// bad format
	do(t, http.MethodPut, ts.URL+"/v1/datasets/x?format=nope",
		strings.NewReader(""), http.StatusBadRequest, nil)

	var list []DatasetInfo
	do(t, http.MethodGet, ts.URL+"/v1/datasets", nil, http.StatusOK, &list)
	if len(list) != 3 {
		t.Fatalf("want 3 datasets, got %+v", list)
	}
	var stats struct{ NumEdges int }
	do(t, http.MethodGet, ts.URL+"/v1/datasets/paper", nil, http.StatusOK, &stats)
	if stats.NumEdges != 4 {
		t.Fatalf("paper dataset has %d edges, want 4", stats.NumEdges)
	}
	do(t, http.MethodDelete, ts.URL+"/v1/datasets/p", nil, http.StatusOK, nil)
	do(t, http.MethodDelete, ts.URL+"/v1/datasets/p", nil, http.StatusNotFound, nil)
}

func TestHTTPServerSideLoad(t *testing.T) {
	ts, _ := newTestServer(t)
	path := filepath.Join(t.TempDir(), "h.bin")
	if err := hgio.SaveFile(path, paperExample()); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"path": %q}`, path)
	var stats struct{ NumEdges int }
	do(t, http.MethodPost, ts.URL+"/v1/datasets/disk/load",
		strings.NewReader(body), http.StatusOK, &stats)
	if stats.NumEdges != 4 {
		t.Fatalf("loaded dataset has %d edges, want 4", stats.NumEdges)
	}
	do(t, http.MethodPost, ts.URL+"/v1/datasets/disk/load",
		strings.NewReader(`{"path": "/no/such/file.hgr"}`), http.StatusBadRequest, nil)
}

// postQuery posts one /v2/query body, asserts the status, and decodes
// the response.
func postQuery(t *testing.T, ts *httptest.Server, body string, wantStatus int) queryResponseJSON {
	t.Helper()
	var out queryResponseJSON
	do(t, http.MethodPost, ts.URL+"/v2/query", strings.NewReader(body), wantStatus, &out)
	return out
}

// edgeList renders a projection's edges in the wire form.
func edgeList(res *core.PipelineResult) [][3]uint32 {
	out := make([][3]uint32, 0, res.Graph.NumEdges())
	for _, e := range res.Graph.Edges() {
		out = append(out, [3]uint32{e.U, e.V, e.W})
	}
	return out
}

func TestHTTPSLineGraphCachesAndMatchesLibrary(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)

	body := `{"dataset":"paper","s":[2],"edges":true}`
	first := postQuery(t, ts, body, http.StatusOK).Results[0]
	second := postQuery(t, ts, body, http.StatusOK).Results[0]
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags: first=%v second=%v, want false,true", first.Cached, second.Cached)
	}

	direct, _ := core.Run(context.Background(), paperExample(), 2, core.PipelineConfig{})
	wantEdges := edgeList(direct)
	for _, got := range []queryEntryJSON{first, second} {
		if !reflect.DeepEqual(got.EdgeList, wantEdges) {
			t.Fatalf("served edge list %v differs from library call %v", got.EdgeList, wantEdges)
		}
		if !reflect.DeepEqual(got.HyperedgeIDs, direct.HyperedgeIDs) {
			t.Fatalf("served hyperedge IDs %v differ from library call %v", got.HyperedgeIDs, direct.HyperedgeIDs)
		}
	}

	// Without "edges" the edge list is omitted but the counts stay.
	lean := postQuery(t, ts, `{"dataset":"paper","s":[2]}`, http.StatusOK).Results[0]
	if lean.EdgeList != nil || lean.Edges != len(wantEdges) {
		t.Fatalf("edges omitted: got %+v", lean)
	}

	// Bad requests.
	postQuery(t, ts, `{"dataset":"paper"}`, http.StatusBadRequest)
	postQuery(t, ts, `{"dataset":"paper","s":[0]}`, http.StatusBadRequest)
	postQuery(t, ts, `{"dataset":"paper","s":[2],"config":"9ZZ"}`, http.StatusBadRequest)
	postQuery(t, ts, `{"dataset":"nope","s":[2]}`, http.StatusNotFound)
}

func TestHTTPSCliqueGraph(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)
	resp := postQuery(t, ts, `{"dataset":"paper","kind":"clique","s":[1],"nosqueeze":true}`, http.StatusOK)
	got := resp.Results[0]
	direct, _ := core.Run(context.Background(), paperExample().Dual(), 1, core.PipelineConfig{NoSqueeze: true})
	if resp.Kind != "clique" || got.Edges != direct.Graph.NumEdges() || got.Nodes != direct.Graph.NumNodes() {
		t.Fatalf("clique graph %+v differs from direct dual run (%d nodes %d edges)",
			resp, direct.Graph.NumNodes(), direct.Graph.NumEdges())
	}
}

func TestHTTPWarmupThenHit(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)
	var warm struct {
		Computed   int `json:"computed"`
		AlreadyHot int `json:"already_hot"`
	}
	do(t, http.MethodPost, ts.URL+"/v1/datasets/paper/warmup",
		strings.NewReader(`{"s": [1, 2, 3]}`), http.StatusOK, &warm)
	if warm.Computed != 3 || warm.AlreadyHot != 0 {
		t.Fatalf("warmup: %+v", warm)
	}
	if got := postQuery(t, ts, `{"dataset":"paper","s":[3]}`, http.StatusOK).Results[0]; !got.Cached {
		t.Fatal("query after warmup must be served from cache")
	}
	do(t, http.MethodPost, ts.URL+"/v1/datasets/paper/warmup",
		strings.NewReader(`{}`), http.StatusBadRequest, nil)

	// A warmup with nosqueeze must pre-seed the nosqueeze query keys.
	do(t, http.MethodPost, ts.URL+"/v1/datasets/paper/warmup",
		strings.NewReader(`{"s": [2], "nosqueeze": true}`), http.StatusOK, &warm)
	if warm.Computed != 1 {
		t.Fatalf("nosqueeze warmup: %+v", warm)
	}
	if ns := postQuery(t, ts, `{"dataset":"paper","s":[2],"nosqueeze":true}`, http.StatusOK).Results[0]; !ns.Cached {
		t.Fatal("nosqueeze query after nosqueeze warmup must hit the cache")
	}

	// Duplicate s values are deduped, not misreported as hits.
	ts2, _ := newTestServer(t)
	uploadPaper(t, ts2)
	do(t, http.MethodPost, ts2.URL+"/v1/datasets/paper/warmup",
		strings.NewReader(`{"s": [2, 2, 2]}`), http.StatusOK, &warm)
	if warm.Computed != 1 || warm.AlreadyHot != 0 {
		t.Fatalf("duplicate-s warmup on a cold cache: %+v", warm)
	}
}

func TestHTTPBatchProjections(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)

	batch := postQuery(t, ts, `{"dataset":"paper","s":"1:3"}`, http.StatusOK)
	if len(batch.Results) != 3 {
		t.Fatalf("want 3 results for s=1:3, got %d", len(batch.Results))
	}
	if batch.Plan == nil || batch.Plan.Strategy == "" {
		t.Fatal("missing plan info")
	}
	for i, got := range batch.Results {
		if got.S != i+1 {
			t.Fatalf("results out of order: %+v", batch.Results)
		}
		direct, _ := core.Run(context.Background(), paperExample(), got.S, core.PipelineConfig{})
		if got.Edges != direct.Graph.NumEdges() {
			t.Fatalf("s=%d: %d edges, want %d", got.S, got.Edges, direct.Graph.NumEdges())
		}
	}

	// The batch seeded the per-s cache: single queries hit.
	if single := postQuery(t, ts, `{"dataset":"paper","s":[2]}`, http.StatusOK).Results[0]; !single.Cached {
		t.Fatal("single query after batch must be served from cache")
	}

	// Mixed list + range forms, and the dual orientation.
	postQuery(t, ts, `{"dataset":"paper","s":"1,2:3"}`, http.StatusOK)
	cliques := postQuery(t, ts, `{"dataset":"paper","kind":"clique","s":"1,2"}`, http.StatusOK)
	if cliques.Kind != "clique" || len(cliques.Results) != 2 {
		t.Fatalf("clique sweep: %+v", cliques)
	}

	// Bad requests.
	postQuery(t, ts, `{"dataset":"paper","s":""}`, http.StatusBadRequest)
	postQuery(t, ts, `{"dataset":"paper","s":"0"}`, http.StatusBadRequest)
	postQuery(t, ts, `{"dataset":"paper","s":"5:2"}`, http.StatusBadRequest)
	postQuery(t, ts, `{"dataset":"paper","kind":"hyper","s":"1"}`, http.StatusBadRequest)
	postQuery(t, ts, `{"dataset":"nope","s":"1"}`, http.StatusNotFound)
}

func TestHTTPWarmupSListString(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)
	var warm struct {
		Computed   int `json:"computed"`
		AlreadyHot int `json:"already_hot"`
	}
	do(t, http.MethodPost, ts.URL+"/v1/datasets/paper/warmup",
		strings.NewReader(`{"s": "1,3:4"}`), http.StatusOK, &warm)
	if warm.Computed != 3 || warm.AlreadyHot != 0 {
		t.Fatalf("s-list warmup: %+v", warm)
	}
	for _, got := range postQuery(t, ts, `{"dataset":"paper","s":[1,3,4]}`, http.StatusOK).Results {
		if !got.Cached {
			t.Fatalf("s=%d: query after s-list warmup must hit", got.S)
		}
	}
	do(t, http.MethodPost, ts.URL+"/v1/datasets/paper/warmup",
		strings.NewReader(`{"s": "nope"}`), http.StatusBadRequest, nil)
	do(t, http.MethodPost, ts.URL+"/v1/datasets/paper/warmup",
		strings.NewReader(`{"s": true}`), http.StatusBadRequest, nil)
	do(t, http.MethodPost, ts.URL+"/v1/datasets/paper/warmup",
		strings.NewReader(`{"s": [2], "workers": -1}`), http.StatusBadRequest, nil)

	// Oversized requests are rejected in both body forms, on warmup
	// and on queries.
	big := make([]byte, 0, 1<<16)
	big = append(big, `{"s": [`...)
	for i := 1; i <= core.MaxSValues+1; i++ {
		if i > 1 {
			big = append(big, ',')
		}
		big = strconv.AppendInt(big, int64(i), 10)
	}
	big = append(big, `]}`...)
	do(t, http.MethodPost, ts.URL+"/v1/datasets/paper/warmup",
		strings.NewReader(string(big)), http.StatusBadRequest, nil)
	do(t, http.MethodPost, ts.URL+"/v1/datasets/paper/warmup",
		strings.NewReader(`{"s": "1:1000,2000:3000"}`), http.StatusBadRequest, nil)
	postQuery(t, ts, `{"dataset":"paper","s":"1:1000,2000:3000"}`, http.StatusBadRequest)
}

func TestHTTPMeasures(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)

	comp := postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"components"}`, http.StatusOK).Results[0]
	// At s=2, hyperedges {0,1,2} form one component; hyperedge 3 has no
	// 2-incident partner and is squeezed out.
	if comp.Value == nil || comp.Value.Scalar == nil || *comp.Value.Scalar != 1 ||
		!reflect.DeepEqual(comp.Value.Groups, [][]uint32{{0, 1, 2}}) {
		t.Fatalf("components: %+v", comp)
	}

	dist := postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"distances","params":{"source":"0"}}`, http.StatusOK).Results[0]
	if dist.Value == nil || !reflect.DeepEqual(dist.Value.Ints, []int32{0, 1, 1}) ||
		!reflect.DeepEqual(dist.HyperedgeIDs, []uint32{0, 1, 2}) {
		t.Fatalf("distances: %+v", dist)
	}
	// Hyperedge 3 has no node at s=2: a per-s failure, and with every
	// entry failed the request fails as a whole.
	if got := postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"distances","params":{"source":"3"}}`, http.StatusBadGateway).Results[0]; got.Error == "" {
		t.Fatal("distances from a squeezed-out source must report a per-s error")
	}
	postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"distances"}`, http.StatusBadRequest)

	for _, name := range []string{"betweenness", "closeness", "harmonic", "pagerank"} {
		got := postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"`+name+`"}`, http.StatusOK).Results[0]
		if got.Value == nil || len(got.Value.Scores) != 3 {
			t.Fatalf("centrality %s: %+v", name, got)
		}
	}
	postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"nope"}`, http.StatusBadRequest)

	conn := postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"connectivity"}`, http.StatusOK).Results[0]
	if conn.Value == nil || conn.Value.Scalar == nil || *conn.Value.Scalar <= 0 {
		t.Fatalf("connectivity of a connected triangle must be positive, got %+v", conn)
	}

	// dual measures work too
	postQuery(t, ts, `{"dataset":"paper","kind":"clique","s":[1],"measure":"components"}`, http.StatusOK)
}

// oversizedBody is valid JSON one pad byte past MaxRequestBytes.
func oversizedBody(prefix string) string {
	return prefix + `"pad":"` + strings.Repeat("x", MaxRequestBytes) + `"}`
}

// TestQueryBodyBounded: a /v2/query body past MaxRequestBytes answers
// 413 without touching the pipeline, while a body just under it still
// answers.
func TestQueryBodyBounded(t *testing.T) {
	ts, svc := newTestServer(t)
	uploadPaper(t, ts)
	do(t, http.MethodPost, ts.URL+"/v2/query",
		strings.NewReader(oversizedBody(`{"dataset":"paper","s":[2],`)), http.StatusRequestEntityTooLarge, nil)
	if st := svc.CacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("an oversized body reached the cache: %+v", st)
	}
	under := `{"dataset":"paper","s":[2],"pad":"` + strings.Repeat("x", MaxRequestBytes-100) + `"}`
	postQuery(t, ts, under, http.StatusOK)
}

// TestWarmupBodyBounded: the warmup body shares the bound.
func TestWarmupBodyBounded(t *testing.T) {
	ts, svc := newTestServer(t)
	uploadPaper(t, ts)
	do(t, http.MethodPost, ts.URL+"/v1/datasets/paper/warmup",
		strings.NewReader(oversizedBody(`{"s":[2],`)), http.StatusRequestEntityTooLarge, nil)
	if st := svc.CacheStats(); st.Entries != 0 {
		t.Fatalf("an oversized warmup computed: %+v", st)
	}
}

// TestLoadBodyBounded: the server-side load body shares the bound.
func TestLoadBodyBounded(t *testing.T) {
	ts, svc := newTestServer(t)
	path := filepath.Join(t.TempDir(), "h.bin")
	if err := hgio.SaveFile(path, paperExample()); err != nil {
		t.Fatal(err)
	}
	do(t, http.MethodPost, ts.URL+"/v1/datasets/disk/load",
		strings.NewReader(oversizedBody(fmt.Sprintf(`{"path":%q,`, path))), http.StatusRequestEntityTooLarge, nil)
	if len(svc.Datasets()) != 0 {
		t.Fatal("an oversized load body registered a dataset")
	}
}
