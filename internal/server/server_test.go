package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bundling"
)

func decodeString(s string, v any) error { return json.Unmarshal([]byte(s), v) }

func jsonMarshal(v any) ([]byte, error) { return json.Marshal(v) }

func copyAll(dst io.Writer, src io.Reader) (int64, error) { return io.Copy(dst, src) }

// testMatrix builds a small deterministic WTP matrix.
func testMatrix(t testing.TB, consumers, items int, seed int64) *bundling.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := bundling.NewMatrix(consumers, items)
	for u := 0; u < consumers; u++ {
		for i := 0; i < items; i++ {
			if rng.Float64() < 0.4 {
				w.MustSet(u, i, 1+rng.Float64()*19)
			}
		}
	}
	return w
}

// postJSON is a minimal HTTP helper for handler-level tests.
func postJSON(t testing.TB, ts *httptest.Server, path, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, sb.String()
}

// TestRoundTripMatchesLibrary uploads a corpus over HTTP, solves and
// evaluates through the full client → server → session path, and asserts
// the results equal direct library calls within 1e-9 — the server must be
// a transport, never a different computation.
func TestRoundTripMatchesLibrary(t *testing.T) {
	w := testMatrix(t, 120, 24, 3)
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, strat := range []bundling.Strategy{bundling.Pure, bundling.Mixed} {
		opts := bundling.Options{Strategy: strat, Theta: -0.02}
		name := fmt.Sprintf("rt-%d", strat)
		if err := Preload(srv, name, w, opts); err != nil {
			t.Fatal(err)
		}
		direct, err := bundling.NewSolver(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range bundling.Algorithms() {
			resp, body := postJSON(t, ts, "/v1/corpora/"+name+"/solve",
				fmt.Sprintf(`{"algorithm":%q}`, alg.Name()))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("solve %s: %d: %s", alg.Name(), resp.StatusCode, body)
			}
			want, err := direct.Solve(alg)
			if err != nil {
				t.Fatal(err)
			}
			var got SolveResponse
			if err := decodeString(body, &got); err != nil {
				t.Fatalf("solve %s: %v", alg.Name(), err)
			}
			if math.Abs(got.Config.Revenue-want.Revenue) > 1e-9 {
				t.Errorf("%v/%s: server revenue %.12f != library %.12f",
					strat, alg.Name(), got.Config.Revenue, want.Revenue)
			}
			if len(got.Config.Bundles) != len(want.Bundles) {
				t.Errorf("%v/%s: %d bundles != %d", strat, alg.Name(), len(got.Config.Bundles), len(want.Bundles))
			}
		}
		offers := [][]int{{0, 1, 2}, {3, 4}, {7}}
		resp, body := postJSON(t, ts, "/v1/corpora/"+name+"/evaluate", `{"offers":[[0,1,2],[3,4],[7]]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate: %d: %s", resp.StatusCode, body)
		}
		want, err := direct.Evaluate(offers)
		if err != nil {
			t.Fatal(err)
		}
		var got EvaluateResponse
		if err := decodeString(body, &got); err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Config.Revenue-want.Revenue) > 1e-9 {
			t.Errorf("%v/evaluate: server revenue %.12f != library %.12f", strat, got.Config.Revenue, want.Revenue)
		}
	}
}

// TestCacheInvalidationOnReupload verifies the version-bump contract: a
// repeated solve hits the cache, a re-upload of the same corpus ID misses
// it and serves results for the new matrix.
func TestCacheInvalidationOnReupload(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	upload := func(seed int64) CorpusInfo {
		doc := bundling.NewMatrixDoc(testMatrix(t, 80, 16, seed))
		req := CreateCorpusRequest{ID: "inv", Matrix: doc}
		buf, _ := jsonMarshal(req)
		resp, body := postJSON(t, ts, "/v1/corpora", string(buf))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload: %d: %s", resp.StatusCode, body)
		}
		var info CorpusInfo
		if err := decodeString(body, &info); err != nil {
			t.Fatal(err)
		}
		return info
	}
	solve := func() SolveResponse {
		resp, body := postJSON(t, ts, "/v1/corpora/inv/solve", `{"algorithm":"matching"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: %d: %s", resp.StatusCode, body)
		}
		var out SolveResponse
		if err := decodeString(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	info1 := upload(1)
	if info1.Version != 1 {
		t.Fatalf("first upload version = %d, want 1", info1.Version)
	}
	first := solve()
	if first.Cached {
		t.Error("first solve must miss the cache")
	}
	second := solve()
	if !second.Cached {
		t.Error("repeat solve must hit the cache")
	}
	if second.Config.Revenue != first.Config.Revenue {
		t.Errorf("cached revenue %.12f != first %.12f", second.Config.Revenue, first.Config.Revenue)
	}

	info2 := upload(2) // different matrix under the same ID
	if info2.Version != 2 {
		t.Fatalf("re-upload version = %d, want 2", info2.Version)
	}
	third := solve()
	if third.Cached {
		t.Error("solve after re-upload must miss the cache (version bump)")
	}
	if third.Version != 2 {
		t.Errorf("solve served version %d, want 2", third.Version)
	}
	if math.Abs(third.Config.Revenue-first.Config.Revenue) < 1e-12 {
		t.Errorf("new corpus produced identical revenue %.12f; suspicious stale result", third.Config.Revenue)
	}
	// The replaced corpus' result must still be reproducible from scratch —
	// and the old cache entry must not shadow the new one.
	fourth := solve()
	if !fourth.Cached || fourth.Config.Revenue != third.Config.Revenue {
		t.Errorf("post-invalidation repeat: cached=%v revenue=%.12f want %.12f",
			fourth.Cached, fourth.Config.Revenue, third.Config.Revenue)
	}
}

// TestConcurrentRegistry hammers create/solve/evaluate/evict from many
// goroutines; run under -race this is the registry's thread-safety proof.
func TestConcurrentRegistry(t *testing.T) {
	srv := New(Config{MaxSessions: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	w := testMatrix(t, 60, 12, 9)
	doc := bundling.NewMatrixDoc(w)
	const workers = 12
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("c%d", g%5) // deliberate ID collisions
			for it := 0; it < 6; it++ {
				req := CreateCorpusRequest{ID: id, Matrix: doc}
				buf, _ := jsonMarshal(req)
				resp, body := postJSON(t, ts, "/v1/corpora", string(buf))
				if resp.StatusCode != http.StatusCreated {
					t.Errorf("create %s: %d: %s", id, resp.StatusCode, body)
					return
				}
				switch it % 3 {
				case 0:
					resp, body = postJSON(t, ts, "/v1/corpora/"+id+"/solve", `{"algorithm":"components"}`)
				case 1:
					resp, body = postJSON(t, ts, "/v1/corpora/"+id+"/evaluate", `{"offers":[[0,1],[2,3]]}`)
				default:
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/corpora/"+id, nil)
					delResp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					delResp.Body.Close()
					// 404 is fine: another goroutine may have deleted or
					// evicted the session first.
					continue
				}
				// Solve/evaluate may 404 if a concurrent delete/evict won the
				// race — that's the documented behavior, not an error.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					t.Errorf("op on %s: %d: %s", id, resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSessionEvictionLRU fills the registry beyond its bound and checks the
// least-recently-used session is evicted.
func TestSessionEvictionLRU(t *testing.T) {
	srv := New(Config{MaxSessions: 2})
	defer srv.Close()
	w := testMatrix(t, 40, 8, 5)
	for _, id := range []string{"a", "b"} {
		if err := Preload(srv, id, w, bundling.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the LRU victim.
	if sess, ok := srv.reg.peek("a"); !ok {
		t.Fatal("session a missing")
	} else {
		srv.reg.touch(sess)
	}
	if err := Preload(srv, "c", w, bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	if srv.Sessions() != 2 {
		t.Fatalf("sessions = %d, want 2", srv.Sessions())
	}
	if _, ok := srv.reg.peek("b"); ok {
		t.Error("b should have been evicted as LRU")
	}
	if _, ok := srv.reg.peek("a"); !ok {
		t.Error("a should have survived")
	}
	if _, ok := srv.reg.peek("c"); !ok {
		t.Error("c should be live")
	}
	// An evicted-then-recreated ID continues its version sequence.
	if err := Preload(srv, "b", w, bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	sess, ok := srv.reg.peek("b")
	if !ok || sess.version != 2 {
		t.Errorf("recreated b version = %d, want 2 (versions survive eviction)", sess.version)
	}
}

// httpErrorCases are TestHTTPErrors' POSTs to a server with a 512-byte
// upload cap, and FuzzHandler's seeds.
var httpErrorCases = []struct {
	name, path, body string
	want             int
}{
	{"solve unknown corpus", "/v1/corpora/nope/solve", `{"algorithm":"matching"}`, http.StatusNotFound},
	{"evaluate unknown corpus", "/v1/corpora/nope/evaluate", `{"offers":[[0]]}`, http.StatusNotFound},
	{"create bad json", "/v1/corpora", `{"matrix": `, http.StatusBadRequest},
	{"create no matrix", "/v1/corpora", `{"id":"x"}`, http.StatusBadRequest},
	{"create bad strategy", "/v1/corpora", `{"id":"x","options":{"strategy":"hybrid"},"matrix":{"consumers":1,"items":1,"entries":[]}}`, http.StatusBadRequest},
	{"create bad entries", "/v1/corpora", `{"id":"x","matrix":{"consumers":1,"items":1,"entries":[[5,5,1]]}}`, http.StatusBadRequest},
	{"create too many price levels", "/v1/corpora", `{"id":"x","options":{"price_levels":4611686018427387904},"matrix":{"consumers":1,"items":1,"entries":[]}}`, http.StatusBadRequest},
	{"create unknown field", "/v1/corpora", `{"id":"x","bogus":1}`, http.StatusBadRequest},
	{"create oversized", "/v1/corpora", `{"matrix":{"consumers":1,"items":1,"entries":[` + strings.Repeat("[0,0,1],", 200) + `[0,0,1]]}}`, http.StatusRequestEntityTooLarge},
}

// TestHTTPErrors exercises the API's failure statuses.
func TestHTTPErrors(t *testing.T) {
	srv := New(Config{MaxUploadBytes: 512})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, c := range httpErrorCases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postJSON(t, ts, c.path, c.body)
			if resp.StatusCode != c.want {
				t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.want, body)
			}
		})
	}

	// Bad offers on a live corpus: overlap under pure bundling → 400.
	if err := Preload(srv, "live", testMatrix(t, 30, 6, 11), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts, "/v1/corpora/live/evaluate", `{"offers":[[0,1],[1,2]]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("overlapping offers: status %d, want 400 (%s)", resp.StatusCode, body)
	}
}

// TestMetricsEndpoint checks the Prometheus exposition carries the serving
// counters the load bench scrapes.
func TestMetricsEndpoint(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := Preload(srv, "m", testMatrix(t, 40, 8, 2), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts, "/v1/corpora/m/solve", `{"algorithm":"components"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: %d: %s", resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(strings.Builder)
	if _, err := copyAll(buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"bundled_sessions 1",
		"bundled_cache_hits_total 1",
		"bundled_cache_misses_total 1",
		`bundled_requests_total{op="solve"} 2`,
		`bundled_request_duration_seconds_bucket{op="solve",le="+Inf"} 2`,
		"bundled_uploads_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

func TestCanonicalOffers(t *testing.T) {
	a := canonicalOffers([][]int{{2, 1}, {5, 3}})
	b := canonicalOffers([][]int{{3, 5}, {1, 2}})
	if a != b {
		t.Errorf("order-insensitive encodings differ: %q vs %q", a, b)
	}
	c := canonicalOffers([][]int{{1, 2}, {3}})
	if a == c {
		t.Errorf("distinct families collide: %q", c)
	}
}

// TestHealthDegradesWhenNotReady: a failing readiness gate turns /healthz
// into a 503 with the failure as detail; a passing gate restores 200.
func TestHealthDegradesWhenNotReady(t *testing.T) {
	var down atomic.Bool
	s := New(Config{Ready: func() error {
		if down.Load() {
			return errors.New("worker span 1 unreachable")
		}
		return nil
	}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	check := func(wantStatus int, wantBody string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("healthz status = %d, want %d", resp.StatusCode, wantStatus)
		}
		var h HealthResponse
		if err := decodeInto(resp, &h); err != nil {
			t.Fatal(err)
		}
		if h.Status != wantBody {
			t.Fatalf("healthz status field = %q, want %q", h.Status, wantBody)
		}
		if wantStatus == http.StatusServiceUnavailable && h.Detail == "" {
			t.Fatal("degraded health should carry a detail")
		}
	}
	check(http.StatusOK, "ok")
	down.Store(true)
	check(http.StatusServiceUnavailable, "degraded")
	down.Store(false)
	check(http.StatusOK, "ok")
}

// decodeInto decodes a response body as JSON.
func decodeInto(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}

// closableSolver wraps a Solver and records Close calls — the shape of the
// cluster coordinator, whose Close releases worker-side spans.
type closableSolver struct {
	Solver
	closed *atomic.Int64
}

func (c *closableSolver) Close() error {
	c.closed.Add(1)
	return nil
}

// TestCustomSolverFactory: an installed NewSolver factory builds every
// session engine, and engines implementing io.Closer are released when
// their session is replaced, deleted or dropped at shutdown.
func TestCustomSolverFactory(t *testing.T) {
	var built, closed atomic.Int64
	s := New(Config{NewSolver: func(w *bundling.Matrix, opts bundling.Options) (Solver, error) {
		built.Add(1)
		inner, err := bundling.NewSolver(w, opts)
		if err != nil {
			return nil, err
		}
		return &closableSolver{Solver: inner, closed: &closed}, nil
	}})
	defer s.Close()
	w := bundling.NewMatrix(2, 2)
	w.MustSet(0, 0, 3)
	if err := Preload(s, "f", w, bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	if built.Load() != 1 {
		t.Fatalf("factory built %d solvers, want 1", built.Load())
	}
	// Replacing the session must close the old engine.
	if err := Preload(s, "f", w, bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	if closed.Load() != 1 {
		t.Fatalf("replace closed %d engines, want 1", closed.Load())
	}
	// Deleting it must close the new one.
	if !t.Run("delete", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodDelete, "/v1/corpora/f", nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusNoContent {
			t.Fatalf("delete status %d", rec.Code)
		}
	}) {
		return
	}
	if closed.Load() != 2 {
		t.Fatalf("delete closed %d engines total, want 2", closed.Load())
	}
}
