package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"bundling"
	"bundling/internal/wtp"
)

// spanDocFor shards a matrix and serializes the full stripe range.
func spanDocFor(w *bundling.Matrix, stripeSize int) *wtp.SpanDoc {
	sh, err := w.Shard(stripeSize)
	if err != nil {
		panic(err)
	}
	return sh.Span(0, sh.Stripes())
}

// TestWorkerVersionCheck: a missing span and a stale version both answer
// ErrSpan — the coordinator's re-feed cue — and count as stale rejections.
func TestWorkerVersionCheck(t *testing.T) {
	wk := NewWorker(WorkerConfig{})
	w := testMatrix(t, 64, 6, 7)
	doc := spanDocFor(w, 16)

	if _, err := wk.Vector("missing", VectorRequest{Version: doc.Version, Bundles: []Bundle{{Items: []int{0}}}}); err == nil {
		t.Fatal("missing span accepted")
	}
	if err := wk.Assign("c", doc); err != nil {
		t.Fatal(err)
	}
	if _, err := wk.Vector("c", VectorRequest{Version: doc.Version + 1, Bundles: []Bundle{{Items: []int{0}}}}); err == nil {
		t.Fatal("stale version accepted")
	}
	if _, err := wk.Vector("c", VectorRequest{Version: doc.Version, Bundles: []Bundle{{Items: []int{0}}}}); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	if wk.stale.Load() != 2 {
		t.Fatalf("stale rejections = %d, want 2", wk.stale.Load())
	}
}

// queryWorker assigns a span of a 6-item corpus to a fresh worker under the
// key "c" and returns the worker and the span's version.
func queryWorker(t testing.TB) (*Worker, uint64) {
	wk := NewWorker(WorkerConfig{})
	doc := spanDocFor(testMatrix(t, 64, 6, 7), 16)
	if err := wk.Assign("c", doc); err != nil {
		t.Fatal(err)
	}
	return wk, doc.Version
}

// workerQuery is one query against queryWorker's span: its op, its body, the
// status it must get, and for a 400 a substring of the error.
type workerQuery struct {
	op, body string
	status   int
	err      string
}

// workerQueries are well-formed, stale and malformed query bodies against a
// span at version v.
func workerQueries(v uint64) []workerQuery {
	// 17 bundles × 65,537 levels: past the histogram cell cap.
	tooMany := strings.TrimSuffix(strings.Repeat(`{"items":[0]},`, 17), ",")
	tooManyMax := strings.TrimSuffix(strings.Repeat("5,", 17), ",")
	return []workerQuery{
		{"vector", fmt.Sprintf(`{"version":%d,"bundles":[{"items":[0,1]},{"items":[5],"theta":0.1}]}`, v), 200, ""},
		{"stats", fmt.Sprintf(`{"version":%d,"bundles":[{"items":[0,1]},{"items":[2]}]}`, v), 200, ""},
		{"hist", fmt.Sprintf(`{"version":%d,"bundles":[{"items":[0]},{"items":[3,4]}],"max_w":[5,9],"alpha":1,"levels":100}`, v), 200, ""},
		{"union", fmt.Sprintf(`{"version":%d,"a_ids":[1,2],"a_vals":[1,2],"sa":1,"b_ids":[2],"b_vals":[3],"sb":1}`, v), 200, ""},
		{"vector", fmt.Sprintf(`{"version":%d,"bundles":[{"items":[0]}]}`, v+1), 409, ""},
		{"vector", fmt.Sprintf(`{"version":%d,"bundles":[{"items":[99]}]}`, v), 400, "item 99 outside [0,6)"},
		{"vector", fmt.Sprintf(`{"version":%d,"bundles":[{"items":[0]},{"items":[-1]}]}`, v), 400, "bundle 1: item -1 outside"},
		{"stats", fmt.Sprintf(`{"version":%d,"bundles":[{"items":[6]}]}`, v), 400, "item 6 outside [0,6)"},
		{"hist", fmt.Sprintf(`{"version":%d,"bundles":[{"items":[0]}],"max_w":[5],"alpha":0,"levels":100}`, v), 400, "α=0 must be finite and > 0"},
		{"hist", fmt.Sprintf(`{"version":%d,"bundles":[{"items":[0]}],"max_w":[5],"alpha":-1,"levels":100}`, v), 400, "α=-1 must be finite and > 0"},
		{"hist", fmt.Sprintf(`{"version":%d,"bundles":[{"items":[0]}],"max_w":[5],"alpha":1,"levels":1000000}`, v), 400, "1000000 price levels outside [1,65536]"},
		{"hist", fmt.Sprintf(`{"version":%d,"bundles":[{"items":[0]}],"max_w":[5],"alpha":1,"levels":0}`, v), 400, "0 price levels outside"},
		{"hist", fmt.Sprintf(`{"version":%d,"bundles":[{"items":[0]},{"items":[1]}],"max_w":[5],"alpha":1,"levels":100}`, v), 400, "1 maxima for 2 bundles"},
		{"hist", fmt.Sprintf(`{"version":%d,"bundles":[%s],"max_w":[%s],"alpha":1,"levels":65536}`, v, tooMany, tooManyMax), 400, "exceed 1048576 histogram cells"},
		{"union", fmt.Sprintf(`{"version":%d,"a_ids":[1,2],"a_vals":[1],"sa":1,"b_ids":[],"b_vals":[],"sb":1}`, v), 400, "union of 2 ids with 1 values"},
	}
}

// postQuery posts a query body to the worker's HTTP handler.
func postQuery(h http.Handler, op, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/spans/c/"+op, strings.NewReader(body)))
	return rec
}

// TestWorkerRejectsMalformedQueries: a malformed query body is answered 400
// with its reason before any kernel reads the span — out-of-range item ids,
// a degenerate pricing grid, mismatched maxima or union vectors, or a batch
// past the histogram cell cap — while well-formed queries answer 200 and a
// stale one 409.
func TestWorkerRejectsMalformedQueries(t *testing.T) {
	wk, v := queryWorker(t)
	for _, q := range workerQueries(v) {
		rec := postQuery(wk.Handler(), q.op, q.body)
		var e ErrorResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &e) // a 200 carries no error
		if rec.Code != q.status || !strings.Contains(e.Error, q.err) {
			t.Errorf("%s %s: got %d %s, want %d with error %q", q.op, q.body, rec.Code, rec.Body, q.status, q.err)
		}
	}
}

// FuzzWorkerQuery drives arbitrary bodies through the worker's query
// handlers on an assigned span: every answer must be 200, 400 or 409, never
// a panic or a 500.
func FuzzWorkerQuery(f *testing.F) {
	wk, v := queryWorker(f)
	ops := []string{"vector", "union", "stats", "hist"}
	for _, q := range workerQueries(v) {
		f.Add(uint8(slices.Index(ops, q.op)), q.body)
	}
	f.Fuzz(func(t *testing.T, op uint8, body string) {
		name := ops[int(op)%len(ops)]
		switch rec := postQuery(wk.Handler(), name, body); rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict:
		default:
			t.Fatalf("%s %q: status %d: %s", name, body, rec.Code, rec.Body)
		}
	})
}

// TestWorkerSpanLRU: spans beyond the bound evict the least recently used.
func TestWorkerSpanLRU(t *testing.T) {
	wk := NewWorker(WorkerConfig{MaxSpans: 2})
	w := testMatrix(t, 48, 5, 8)
	doc := spanDocFor(w, 16)
	for _, c := range []string{"a", "b"} {
		if err := wk.Assign(c, doc); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the eviction victim.
	if _, err := wk.Vector("a", VectorRequest{Version: doc.Version, Bundles: []Bundle{{Items: []int{0}}}}); err != nil {
		t.Fatal(err)
	}
	if err := wk.Assign("c", doc); err != nil {
		t.Fatal(err)
	}
	h := wk.Health()
	if len(h.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(h.Spans))
	}
	for _, sp := range h.Spans {
		if sp.Corpus == "b" {
			t.Fatal("LRU victim 'b' still assigned")
		}
	}
}

// TestWorkerHTTPSurface drives the daemon's handler end to end: assign a
// span over HTTP, read it back from /healthz with its corpus version, get a
// vector, see a stale request answered 409, and scrape /metrics.
func TestWorkerHTTPSurface(t *testing.T) {
	wk := NewWorker(WorkerConfig{})
	ts := httptest.NewServer(wk.Handler())
	defer ts.Close()
	tr := NewHTTP(ts.URL, nil)

	w := testMatrix(t, 80, 6, 9)
	doc := spanDocFor(w, 16)
	ctx := t.Context()
	if err := tr.Assign(ctx, "demo", &AssignRequest{Corpus: "demo", Span: doc}); err != nil {
		t.Fatal(err)
	}

	h, err := tr.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Spans) != 1 {
		t.Fatalf("healthz spans = %d, want 1", len(h.Spans))
	}
	sp := h.Spans[0]
	if sp.Corpus != "demo" || sp.Version != doc.Version || sp.StartStripe != 0 || sp.EndStripe != doc.End {
		t.Fatalf("healthz span = %+v, want demo@%d stripes [0,%d)", sp, doc.Version, doc.End)
	}
	if sp.LoConsumer != 0 || sp.HiConsumer != w.Consumers() {
		t.Fatalf("healthz consumer bounds [%d,%d), want [0,%d)", sp.LoConsumer, sp.HiConsumer, w.Consumers())
	}

	resp, err := tr.Vector(ctx, "demo", VectorRequest{Version: doc.Version, Bundles: []Bundle{{Items: []int{0, 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := w.Shard(16)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs, wantVals := sh.BundleVector([]int{0, 1}, 0, nil, nil)
	if len(resp.IDs) != len(wantIDs) {
		t.Fatalf("vector length %d != %d", len(resp.IDs), len(wantIDs))
	}
	for i := range resp.IDs {
		if resp.IDs[i] != wantIDs[i] || resp.Vals[i] != wantVals[i] {
			t.Fatalf("vector[%d] = (%d,%g), want (%d,%g)", i, resp.IDs[i], resp.Vals[i], wantIDs[i], wantVals[i])
		}
	}

	// Stale version over HTTP must surface as ErrSpan (status 409).
	_, err = tr.Vector(ctx, "demo", VectorRequest{Version: doc.Version + 9, Bundles: []Bundle{{Items: []int{0}}}})
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("stale request error = %v", err)
	}
	hr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := hr.Body.Read(buf)
	body := string(buf[:n])
	for _, want := range []string{"bundleworker_spans 1", "bundleworker_requests_total{op=\"vector\"}", "bundleworker_stale_rejections_total 1"} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestWorkerSpanMetricsOptIn: the per-span request gauges carry corpus
// keys — tenant data — so they must stay off the worker's open /metrics
// unless the operator opted in (-usage-metrics).
func TestWorkerSpanMetricsOptIn(t *testing.T) {
	w := testMatrix(t, 48, 5, 8)
	doc := spanDocFor(w, 16)
	for _, labeled := range []bool{false, true} {
		wk := NewWorker(WorkerConfig{UsageMetrics: labeled})
		if err := wk.Assign("secret-corpus/0", doc); err != nil {
			t.Fatal(err)
		}
		if _, err := wk.Vector("secret-corpus/0", VectorRequest{Version: doc.Version, Bundles: []Bundle{{Items: []int{0}}}}); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		wk.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		body := rec.Body.String()
		if got := strings.Contains(body, "bundleworker_span_requests{"); got != labeled {
			t.Errorf("UsageMetrics=%v: span gauge present=%v in:\n%s", labeled, got, body)
		}
		if labeled != strings.Contains(body, "secret-corpus") {
			t.Errorf("UsageMetrics=%v: corpus key exposure wrong", labeled)
		}
		if !strings.Contains(body, "bundleworker_spans 1") {
			t.Errorf("unlabeled span count must always serve:\n%s", body)
		}
	}
}

// TestClusterOverHTTP: the coordinator over real HTTP transports matches
// the local solver — a solve, and an evaluate served remotely — and keeps
// matching (via replica + local fallback) after a worker daemon dies
// mid-session.
func TestClusterOverHTTP(t *testing.T) {
	w := testMatrix(t, 140, 10, 10)
	wk0, wk1 := NewWorker(WorkerConfig{}), NewWorker(WorkerConfig{})
	ts0 := httptest.NewServer(wk0.Handler())
	defer ts0.Close()
	ts1 := httptest.NewServer(wk1.Handler())
	defer ts1.Close()
	transports, err := Transports(ts0.URL+","+ts1.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := bundling.Options{StripeSize: 16}
	cs, err := NewSolver(w, opts, Config{Workers: transports})
	if err != nil {
		t.Fatal(err)
	}
	local, err := bundling.NewSolver(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Solve(bundling.Matching())
	if err != nil {
		t.Fatal(err)
	}
	got, err := cs.Solve(bundling.Matching())
	if err != nil {
		t.Fatal(err)
	}
	sameConfig(t, "http", got, want)
	sameEvaluates(t, "http", cs, local, [][][]int{evalOffers()})
	if st := cs.ClusterStats(); st.LocalFallbacks != 0 || st.RemoteCalls == 0 {
		t.Fatalf("unexpected traffic stats %+v", st)
	}

	// Kill worker 0: its span moves to the replica (worker 1); results hold.
	ts0.Close()
	sameEvaluates(t, "http-degraded", cs, local, [][][]int{evalOffers()})
	if st := cs.ClusterStats(); st.ReplicaRetries == 0 && st.LocalFallbacks == 0 {
		t.Fatalf("dead worker served nothing yet stats show no retries: %+v", st)
	}
	if err := Ready(transports, 0)(); err == nil {
		t.Fatal("ready probe ignored the dead worker")
	}
}
