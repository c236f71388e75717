package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// v2Status posts one /v2/query body and returns the decoded entries,
// asserting the status code. Regression coverage for the all-entries-
// failed case: a sweep where every per-s evaluation failed must answer
// 502 (upstream evaluation failure), while partial success keeps 200
// and client mistakes keep their 4xx — callers must not have to parse
// entries to tell a dead sweep from a live one.
func v2Status(t *testing.T, url, body string, wantStatus int) []struct {
	S     int    `json:"s"`
	Error string `json:"error"`
} {
	t.Helper()
	var resp struct {
		Results []struct {
			S     int    `json:"s"`
			Error string `json:"error"`
		} `json:"results"`
	}
	do(t, http.MethodPost, url+"/v2/query", strings.NewReader(body), wantStatus, &resp)
	return resp.Results
}

func TestV2QueryAllEntriesFailedIs502(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)

	// Hyperedge 3 is {4,5}: with |e| = 2 it can have no s-incident pair
	// at s >= 3, so "distances" from source 3 fails at every requested s.
	results := v2Status(t, ts.URL,
		`{"dataset":"paper","s":"3:4","measure":"distances","params":{"source":"3"}}`,
		http.StatusBadGateway)
	if len(results) != 2 {
		t.Fatalf("want 2 entries, got %+v", results)
	}
	for _, e := range results {
		if e.Error == "" {
			t.Fatalf("entry s=%d unexpectedly succeeded in an all-failed regression case", e.S)
		}
	}
}

func TestV2QueryPartialFailureStays200(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)

	// s=1 succeeds (edge 3 overlaps edge 2 in vertex 4), s=3 fails.
	results := v2Status(t, ts.URL,
		`{"dataset":"paper","s":[1,3],"measure":"distances","params":{"source":"3"}}`,
		http.StatusOK)
	var ok, failed int
	for _, e := range results {
		if e.Error == "" {
			ok++
		} else {
			failed++
		}
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("want a mixed outcome, got %+v", results)
	}
}

// TestQuotaShedCarriesRetryAfter pins that a per-dataset quota shed
// (-max-inflight-per-dataset) answers 429 *with* a Retry-After header,
// exactly like a global admission shed — clients and the router key
// their backoff off that header, so a bare 429 on the quota path would
// silently defeat it.
func TestQuotaShedCarriesRetryAfter(t *testing.T) {
	svc := New(Config{MaxInflightPerDataset: 1})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	uploadPaper(t, ts)

	// Occupy the dataset's single admission slot so the next request
	// sheds on the per-dataset quota, not the global budget.
	release, err := svc.adm.Acquire(context.Background(), PriorityInteractive, "paper", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	for _, probe := range []struct {
		method, url, body string
	}{
		{http.MethodPost, ts.URL + "/v1/datasets/paper/warmup", `{"s":[2]}`},
		{http.MethodPost, ts.URL + "/v2/query", `{"dataset":"paper","s":[2]}`},
	} {
		req, err := http.NewRequest(probe.method, probe.url, strings.NewReader(probe.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s %s: status %d, want 429", probe.method, probe.url, resp.StatusCode)
		}
		ra := resp.Header.Get("Retry-After")
		if ra == "" {
			t.Fatalf("%s %s: quota shed returned a bare 429 without Retry-After", probe.method, probe.url)
		}
		if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
			t.Fatalf("%s %s: Retry-After %q, want whole seconds >= 1", probe.method, probe.url, ra)
		}
	}
	if st := svc.adm.Stats(); st.ShedPerDataset == 0 {
		t.Fatalf("probes did not exercise the per-dataset quota path: %+v", st)
	}
}

func TestV2QueryRequestErrorsKeep4xx(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)

	// Client mistakes must not be reclassified by the all-failed rule.
	do(t, http.MethodPost, ts.URL+"/v2/query",
		strings.NewReader(`{"dataset":"paper","s":"1:2","measure":"nope"}`),
		http.StatusBadRequest, nil)
	do(t, http.MethodPost, ts.URL+"/v2/query",
		strings.NewReader(`{"dataset":"missing","s":"1:2"}`),
		http.StatusNotFound, nil)
}
