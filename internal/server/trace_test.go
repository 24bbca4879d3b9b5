package server

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bundling"
	"bundling/internal/obs"
)

// TestRequestIDOnEveryResponse asserts the X-Request-Id contract: every
// response through the handler carries one — 2xx, 4xx and 5xx alike — and
// JSON error bodies repeat it as request_id so a copy-pasted error is
// enough to find the server-side log line.
func TestRequestIDOnEveryResponse(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := Preload(srv, "ids", testMatrix(t, 40, 10, 1), bundling.Options{}); err != nil {
		t.Fatal(err)
	}

	resp, _ := postJSON(t, ts, "/v1/corpora/ids/solve", `{"algorithm":"matching"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d", resp.StatusCode)
	}
	if resp.Header.Get(obs.HeaderRequest) == "" {
		t.Error("2xx response missing X-Request-Id")
	}
	if resp.Header.Get(obs.HeaderTrace) == "" {
		t.Error("2xx response missing X-Trace-Id")
	}

	resp, body := postJSON(t, ts, "/v1/corpora/nope/solve", `{"algorithm":"matching"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing corpus: %d", resp.StatusCode)
	}
	reqID := resp.Header.Get(obs.HeaderRequest)
	if reqID == "" {
		t.Error("4xx response missing X-Request-Id")
	}
	var apiErr ErrorResponse
	if err := decodeString(body, &apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.RequestID != reqID {
		t.Errorf("error body request_id %q != header %q", apiErr.RequestID, reqID)
	}

	// Untraced paths still get a request ID, but no trace.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.Header.Get(obs.HeaderRequest) == "" {
		t.Error("/healthz missing X-Request-Id")
	}
	if hr.Header.Get(obs.HeaderTrace) != "" {
		t.Error("/healthz unexpectedly traced")
	}
}

// TestDebugTracesEndpoint drives a solve and asserts the ring serves its
// trace back: newest first, root "request" span annotated with corpus and
// algorithm, and the solve stage present underneath.
func TestDebugTracesEndpoint(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := Preload(srv, "tr", testMatrix(t, 60, 12, 2), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJSON(t, ts, "/v1/corpora/tr/solve", `{"algorithm":"matching"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d", resp.StatusCode)
	}
	traceID := resp.Header.Get(obs.HeaderTrace)

	tresp, body := getBody(t, ts, "/debug/traces?limit=5")
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %d: %s", tresp.StatusCode, body)
	}
	var tl TracesResponse
	if err := decodeString(body, &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Traces) == 0 {
		t.Fatal("no traces in ring")
	}
	doc := tl.Traces[0]
	if doc.TraceID != traceID {
		t.Fatalf("newest trace %q != solve trace %q", doc.TraceID, traceID)
	}
	if doc.RootTag("algorithm") != "matching" || doc.RootTag("corpus") != "tr" {
		t.Errorf("root tags: algorithm=%q corpus=%q", doc.RootTag("algorithm"), doc.RootTag("corpus"))
	}
	names := map[string]bool{}
	for _, sp := range doc.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"request", "queue", "solve", "price_candidates"} {
		if !names[want] {
			t.Errorf("trace missing %q span (have %v)", want, names)
		}
	}

	// Bad limit is a 400, not a panic or a silent default.
	bresp, _ := getBody(t, ts, "/debug/traces?limit=zero")
	if bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("limit=zero: %d, want 400", bresp.StatusCode)
	}
}

// TestTracingDisabled asserts TraceRing < 0 turns the subsystem off: no
// X-Trace-Id, a 404 from /debug/traces, and X-Request-Id still present —
// and every /v1 request, a 404 included, still logs its line.
func TestTracingDisabled(t *testing.T) {
	var buf bytes.Buffer
	srv := New(Config{TraceRing: -1, Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := Preload(srv, "off", testMatrix(t, 30, 8, 3), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJSON(t, ts, "/v1/corpora/off/solve", `{"algorithm":"matching"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d", resp.StatusCode)
	}
	if resp.Header.Get(obs.HeaderTrace) != "" {
		t.Error("X-Trace-Id present with tracing disabled")
	}
	if resp.Header.Get(obs.HeaderRequest) == "" {
		t.Error("X-Request-Id missing with tracing disabled")
	}
	tresp, _ := getBody(t, ts, "/debug/traces")
	if tresp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/traces with tracing disabled: %d, want 404", tresp.StatusCode)
	}
	missing, _ := postJSON(t, ts, "/v1/corpora/gone/solve", `{"algorithm":"matching"}`)
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("missing corpus: %d", missing.StatusCode)
	}
	lines := strings.Split(buf.String(), "\n")
	for _, want := range []struct {
		reqID, corpus string
		status        int
	}{
		{resp.Header.Get(obs.HeaderRequest), "off", http.StatusOK},
		{missing.Header.Get(obs.HeaderRequest), "gone", http.StatusNotFound},
	} {
		found := false
		for _, line := range lines {
			found = found || strings.Contains(line, `"msg":"request"`) &&
				strings.Contains(line, `"request_id":"`+want.reqID+`"`) &&
				strings.Contains(line, `"corpus":"`+want.corpus+`"`) &&
				strings.Contains(line, fmt.Sprintf(`"status":%d`, want.status))
		}
		if !found {
			t.Errorf("no request line for %s (corpus %s, status %d) with tracing disabled:\n%s", want.reqID, want.corpus, want.status, buf.String())
		}
	}
	if strings.Contains(buf.String(), `"trace"`) {
		t.Errorf("untraced request lines carry a trace attribute:\n%s", buf.String())
	}
}

// TestCallerTraceIDJoins asserts a caller-supplied X-Trace-Id is adopted,
// joining the server's spans to the caller's distributed trace.
func TestCallerTraceIDJoins(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := Preload(srv, "join", testMatrix(t, 30, 8, 4), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/corpora/join/solve",
		strings.NewReader(`{"algorithm":"matching"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.HeaderTrace, "cafe0123cafe0123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.HeaderTrace); got != "cafe0123cafe0123" {
		t.Errorf("X-Trace-Id %q, want caller's cafe0123cafe0123", got)
	}
}

// TestRequestLogAndSlowDump asserts the structured request line carries the
// correlation fields and that a request past the slow budget dumps its span
// tree.
func TestRequestLogAndSlowDump(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	srv := New(Config{Logger: logger, SlowRequest: 1}) // 1ns: everything is slow
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := Preload(srv, "slow", testMatrix(t, 40, 10, 5), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJSON(t, ts, "/v1/corpora/slow/solve", `{"algorithm":"greedy"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d", resp.StatusCode)
	}
	traceID := resp.Header.Get(obs.HeaderTrace)
	out := buf.String()
	for _, want := range []string{
		`"msg":"request"`, traceID, `"algorithm":"greedy"`, `"corpus":"slow"`, `"status":200`,
		`"msg":"slow request"`, "price_candidates", // span tree dump includes stage names
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}

// TestHealthzBuildInfo asserts the enriched health document: corpus count,
// uptime and Go build info.
func TestHealthzBuildInfo(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := Preload(srv, "hi", testMatrix(t, 20, 6, 6), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	_, body := getBody(t, ts, "/healthz")
	var h HealthResponse
	if err := decodeString(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status %q", h.Status)
	}
	if h.Corpora != 1 || h.Sessions != 1 {
		t.Errorf("corpora=%d sessions=%d, want 1/1", h.Corpora, h.Sessions)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime %f < 0", h.UptimeSeconds)
	}
	if !strings.HasPrefix(h.GoVersion, "go") {
		t.Errorf("go_version %q", h.GoVersion)
	}
}

// TestPprofGate asserts /debug/pprof serves only when enabled.
func TestPprofGate(t *testing.T) {
	on := New(Config{Pprof: true})
	defer on.Close()
	tsOn := httptest.NewServer(on.Handler())
	defer tsOn.Close()
	resp, _ := getBody(t, tsOn, "/debug/pprof/heap?debug=1")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof enabled: heap profile %d, want 200", resp.StatusCode)
	}

	off := New(Config{})
	defer off.Close()
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	resp, _ = getBody(t, tsOff, "/debug/pprof/heap")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof disabled: heap profile %d, want 404", resp.StatusCode)
	}
}

// TestDebugTracesAuthGuarded asserts traces sit behind tenant auth when the
// daemon is multi-tenant — span tags carry corpus names and algorithms,
// which are tenant data.
func TestDebugTracesAuthGuarded(t *testing.T) {
	auth, err := ParseAuthKeys("alice=sk-alice")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Auth: auth})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := getBody(t, ts, "/debug/traces")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /debug/traces: %d, want 401", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/debug/traces", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer sk-alice")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("authenticated /debug/traces: %d, want 200", r2.StatusCode)
	}
}

// TestStageMetricsRendered asserts span timings feed the
// bundled_stage_seconds histogram family and the runtime gauges render.
func TestStageMetricsRendered(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := Preload(srv, "sm", testMatrix(t, 40, 10, 7), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJSON(t, ts, "/v1/corpora/sm/solve", `{"algorithm":"matching"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d", resp.StatusCode)
	}
	_, metrics := getBody(t, ts, "/metrics")
	for _, want := range []string{
		`bundled_stage_seconds_bucket{stage="solve"`,
		`bundled_stage_seconds_bucket{stage="request"`,
		"bundled_goroutines",
		"bundled_heap_alloc_bytes",
		"bundled_gc_runs_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestEvaluateTraceHoldsEngine: an uncached evaluate runs the engine under
// its request's trace, so its trace holds the engine's evaluate span and
// the evaluate stage counts exactly that one run.
func TestEvaluateTraceHoldsEngine(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := Preload(srv, "ev", testMatrix(t, 40, 10, 8), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts, "/v1/corpora/ev/evaluate", `{"offers":[[0,1],[2]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d: %s", resp.StatusCode, body)
	}
	_, metrics := getBody(t, ts, "/metrics")
	if want := `bundled_stage_seconds_count{stage="evaluate"} 1`; !strings.Contains(metrics, want) {
		t.Errorf("/metrics missing %q", want)
	}
	_, body = getBody(t, ts, "/debug/traces?limit=1")
	var tl TracesResponse
	if err := decodeString(body, &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Traces) != 1 || tl.Traces[0].TraceID != resp.Header.Get(obs.HeaderTrace) {
		t.Fatalf("newest trace is not the evaluate's: %s", body)
	}
	names := map[string]bool{}
	for _, sp := range tl.Traces[0].Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"request", "queue", "evaluate"} {
		if !names[want] {
			t.Errorf("evaluate trace missing %q span (have %v)", want, names)
		}
	}
}

// getBody GETs a path and returns the response and body text.
func getBody(t testing.TB, ts *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := copyAll(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, sb.String()
}
