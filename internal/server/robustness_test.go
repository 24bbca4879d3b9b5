package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"bundling"
	"bundling/internal/obs"
)

// gatedSolver wraps a real solver but holds every solve and evaluate until
// release is closed (or the run's context ends), signalling each start on
// started and sending each evaluate's returned error on evaluated.
type gatedSolver struct {
	Solver
	release   chan struct{}
	started   chan struct{}
	evaluated chan error
}

func (g *gatedSolver) SolveContext(ctx context.Context, a bundling.Algorithm) (*bundling.Configuration, error) {
	g.started <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Solver.SolveContext(ctx, a)
}

func (g *gatedSolver) EvaluateContext(ctx context.Context, offers [][]int) (cfg *bundling.Configuration, err error) {
	defer func() { g.evaluated <- err }()
	g.started <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Solver.EvaluateContext(ctx, offers)
}

// gatedServer builds a server whose sessions block in the engine until the
// returned release channel is closed. The last channel receives the error
// each gated evaluate returned, as it returns.
func gatedServer(t *testing.T, cfg Config) (*httptest.Server, chan struct{}, chan struct{}, chan error) {
	t.Helper()
	release := make(chan struct{})
	// Room for every engine call a test makes, so no gated run blocks on
	// a signal its test does not read.
	started := make(chan struct{}, 64)
	evaluated := make(chan error, 64)
	cfg.CacheEntries = -1 // every request must reach the engine
	cfg.NewSolver = func(w *bundling.Matrix, o bundling.Options) (Solver, error) {
		inner, err := bundling.NewSolver(w, o)
		if err != nil {
			return nil, err
		}
		return &gatedSolver{Solver: inner, release: release, started: started, evaluated: evaluated}, nil
	}
	srv := New(cfg)
	t.Cleanup(srv.Close)
	if err := Preload(srv, "c", testMatrix(t, 40, 6, 1), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, release, started, evaluated
}

// engineReturned waits for the gated evaluate's returned error and fails
// unless it is want: an engine still running past its request's end
// means the request's context never reached it.
func engineReturned(t *testing.T, evaluated chan error, want error) {
	t.Helper()
	select {
	case err := <-evaluated:
		if !errors.Is(err, want) {
			t.Fatalf("gated evaluate returned %v, want %v", err, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("gated evaluate still running 2s after its request ended, want it to return %v", want)
	}
}

// TestOverloadShedsWithRetryAfter: with one execution slot busy and
// queueing disabled, the next solve is shed immediately — 503, Retry-After,
// and the shed counter on /metrics — while the in-flight run completes
// normally once released.
func TestOverloadShedsWithRetryAfter(t *testing.T) {
	ts, release, started, _ := gatedServer(t, Config{MaxConcurrent: 1, MaxQueue: -1})
	firstDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts, "/v1/corpora/c/solve", `{"algorithm":"matching"}`)
		firstDone <- resp.StatusCode
	}()
	<-started // the first request holds the only slot inside the engine
	resp, body := postJSON(t, ts, "/v1/corpora/c/solve", `{"algorithm":"greedy"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second solve = %d (%s), want 503", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Fatal("503 without a Retry-After header")
	}
	if !strings.Contains(body, "overloaded") {
		t.Fatalf("shed body = %q", body)
	}
	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("first solve = %d after release, want 200", code)
	}
	mresp, metrics := postGet(t, ts, "/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", mresp.StatusCode)
	}
	if !strings.Contains(metrics, "bundled_shed_requests_total 1") {
		t.Fatal("shed request not counted on /metrics")
	}
}

// TestOverloadQueueAdmits: a queued request gets the slot when the holder
// releases it inside the queue timeout — bounded waiting, not a shed.
func TestOverloadQueueAdmits(t *testing.T) {
	ts, release, started, _ := gatedServer(t, Config{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 5 * time.Second})
	firstDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts, "/v1/corpora/c/solve", `{"algorithm":"matching"}`)
		firstDone <- resp.StatusCode
	}()
	<-started
	secondDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts, "/v1/corpora/c/solve", `{"algorithm":"greedy"}`)
		secondDone <- resp.StatusCode
	}()
	// Give the second request time to enter the queue, then release the
	// gate: both runs finish.
	time.Sleep(50 * time.Millisecond)
	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("first solve = %d, want 200", code)
	}
	if code := <-secondDone; code != http.StatusOK {
		t.Fatalf("queued solve = %d, want 200", code)
	}
}

// TestDeadlineBudget504: a solve or evaluate that outlives the server's
// DefaultTimeout returns 504 and bumps the deadline counter.
func TestDeadlineBudget504(t *testing.T) {
	for _, c := range []struct{ op, body string }{
		{"solve", `{"algorithm":"matching"}`},
		{"evaluate", `{"offers":[[0,1],[2]]}`},
	} {
		t.Run(c.op, func(t *testing.T) {
			ts, release, _, evaluated := gatedServer(t, Config{DefaultTimeout: 30 * time.Millisecond})
			defer close(release) // never released within the budget
			resp, body := postJSON(t, ts, "/v1/corpora/c/"+c.op, c.body)
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("%s = %d (%s), want 504", c.op, resp.StatusCode, body)
			}
			if c.op == "evaluate" {
				engineReturned(t, evaluated, context.DeadlineExceeded)
			}
			_, metrics := postGet(t, ts, "/metrics")
			if !strings.Contains(metrics, "bundled_deadline_exceeded_total 1") {
				t.Fatal("deadline expiry not counted on /metrics")
			}
		})
	}
}

// TestDeadlineHeader overrides the budget per request: a tiny X-Deadline-Ms
// times the run out on a server with no default budget, the engine
// included; a malformed value is the client's 400.
func TestDeadlineHeader(t *testing.T) {
	ts, release, _, evaluated := gatedServer(t, Config{})
	defer close(release)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/corpora/c/evaluate", strings.NewReader(`{"offers":[[0,1],[2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(deadlineHeader, "20")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("evaluate with %s: %d, want 504", deadlineHeader, resp.StatusCode)
	}
	engineReturned(t, evaluated, context.DeadlineExceeded)
	for _, bad := range []string{"0", "-5", "soon"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/corpora/c/solve", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(deadlineHeader, bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s=%q: %d, want 400", deadlineHeader, bad, resp.StatusCode)
		}
	}
}

// TestDeadlineClientDisconnect: a client that hangs up mid-evaluate
// cancels the engine run with context.Canceled.
func TestDeadlineClientDisconnect(t *testing.T) {
	ts, release, started, evaluated := gatedServer(t, Config{})
	defer close(release)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/corpora/c/evaluate", strings.NewReader(`{"offers":[[0,1],[2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		sent <- err
	}()
	<-started
	cancel()
	if err := <-sent; !errors.Is(err, context.Canceled) {
		t.Fatalf("client side of the canceled evaluate: %v, want context.Canceled", err)
	}
	engineReturned(t, evaluated, context.Canceled)
}

// panicSolver blows up inside the handler's solve, evaluate and PATCH
// paths.
type panicSolver struct{ Solver }

func (p *panicSolver) SolveContext(context.Context, bundling.Algorithm) (*bundling.Configuration, error) {
	panic("solver exploded")
}

func (p *panicSolver) EvaluateContext(context.Context, [][]int) (*bundling.Configuration, error) {
	panic("solver exploded")
}

func (p *panicSolver) ApplyDeltaSolver([]bundling.DeltaCell) (Solver, error) {
	panic("solver exploded")
}

// TestPanicRecovery: an engine panic in a solve, an evaluate or a PATCH
// becomes a 500 with the panic counter bumped, observed like any other
// request — logged at error level, traced with status=500 and billed as an
// error to its corpus. The panicking run releases its only execution slot,
// and the server keeps serving afterwards.
func TestPanicRecovery(t *testing.T) {
	for _, c := range []struct{ op, body string }{
		{"solve", `{"algorithm":"matching"}`},
		{"evaluate", `{"offers":[[0,1],[2]]}`},
		{"patch", `{"cells":[{"consumer":0,"item":0,"value":3}]}`},
	} {
		t.Run(c.op, func(t *testing.T) {
			var buf bytes.Buffer
			srv := New(Config{
				Logger:        slog.New(slog.NewJSONHandler(&buf, nil)),
				CacheEntries:  -1,
				MaxConcurrent: 1,
				MaxQueue:      -1,
				NewSolver: func(w *bundling.Matrix, o bundling.Options) (Solver, error) {
					inner, err := bundling.NewSolver(w, o)
					if err != nil {
						return nil, err
					}
					return &panicSolver{Solver: inner}, nil
				},
			})
			defer srv.Close()
			if err := Preload(srv, "c", testMatrix(t, 40, 6, 1), bundling.Options{}); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			send := func() (*http.Response, string) {
				if c.op == "patch" {
					return patchBody(t, ts, "c", "application/json", []byte(c.body))
				}
				return postJSON(t, ts, "/v1/corpora/c/"+c.op, c.body)
			}
			resp, body := send()
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("panicking %s = %d (%s), want 500", c.op, resp.StatusCode, body)
			}
			if !strings.Contains(body, "internal error") {
				t.Fatalf("500 body = %q", body)
			}
			// The daemon survives: metadata requests still answer.
			resp2, metrics := postGet(t, ts, "/metrics")
			if resp2.StatusCode != http.StatusOK {
				t.Fatalf("/metrics after panic = %d", resp2.StatusCode)
			}
			if !strings.Contains(metrics, "bundled_handler_panics_total 1") {
				t.Fatal("panic not counted on /metrics")
			}
			reqID := resp.Header.Get(obs.HeaderRequest)
			logged := false
			for _, line := range strings.Split(buf.String(), "\n") {
				logged = logged || strings.Contains(line, `"level":"ERROR","msg":"request"`) &&
					strings.Contains(line, `"request_id":"`+reqID+`"`) && strings.Contains(line, `"status":500`)
			}
			if !logged {
				t.Errorf("no error-level request line for the panic %s:\n%s", reqID, buf.String())
			}
			_, body = postGet(t, ts, "/debug/traces")
			var tl TracesResponse
			if err := decodeString(body, &tl); err != nil {
				t.Fatal(err)
			}
			traced := false
			for _, doc := range tl.Traces {
				traced = traced || doc.RootTag("request_id") == reqID && doc.RootTag("status") == "500"
			}
			if !traced {
				t.Errorf("no trace with root status=500 for the panic %s: %s", reqID, body)
			}
			_, body = postGet(t, ts, "/v1/usage")
			var use UsageResponse
			if err := decodeString(body, &use); err != nil {
				t.Fatal(err)
			}
			if len(use.Corpora) != 1 || use.Corpora[0].Key != "c" || use.Corpora[0].Errors != 1 {
				t.Errorf("usage corpora = %+v, want one error billed to c", use.Corpora)
			}
			// The one execution slot came back: the next run is admitted
			// (and panics again) instead of being shed with 503.
			if resp, body := send(); resp.StatusCode != http.StatusInternalServerError {
				t.Errorf("%s after a panic = %d (%s), want 500 from an admitted run", c.op, resp.StatusCode, body)
			}
		})
	}
}

// abortSolver aborts its request the way net/http's own handlers do.
type abortSolver struct{ Solver }

func (abortSolver) SolveContext(context.Context, bundling.Algorithm) (*bundling.Configuration, error) {
	panic(http.ErrAbortHandler)
}

// TestAbortHandlerRepanics: http.ErrAbortHandler is net/http's idiom for
// dropping the connection, not a bug — it passes through the recovery
// uncounted, for net/http to handle.
func TestAbortHandlerRepanics(t *testing.T) {
	srv := New(Config{
		NewSolver: func(w *bundling.Matrix, o bundling.Options) (Solver, error) {
			inner, err := bundling.NewSolver(w, o)
			if err != nil {
				return nil, err
			}
			return abortSolver{inner}, nil
		},
	})
	defer srv.Close()
	if err := Preload(srv, "c", testMatrix(t, 40, 6, 1), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/corpora/c/solve", strings.NewReader(`{"algorithm":"matching"}`))
	func() {
		defer func() {
			if p := recover(); p != http.ErrAbortHandler {
				t.Fatalf("recovered %v, want http.ErrAbortHandler", p)
			}
		}()
		srv.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	if n := srv.met.handlerPanics.Load(); n != 0 {
		t.Errorf("abort counted as %d handler panics", n)
	}
}

// TestHealthWorkerStatus: a configured WorkerStatus hook surfaces breaker
// state in the health payload.
func TestHealthWorkerStatus(t *testing.T) {
	srv := New(Config{
		WorkerStatus: func() []WorkerStatusDoc {
			return []WorkerStatusDoc{{Addr: "w0", State: "open", FailureRate: 1, Trips: 2, RetryInMs: 350}}
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := postGet(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d (%s)", resp.StatusCode, body)
	}
	var hr HealthResponse
	if err := decodeString(body, &hr); err != nil {
		t.Fatal(err)
	}
	if len(hr.Workers) != 1 || hr.Workers[0].State != "open" || hr.Workers[0].Trips != 2 {
		t.Fatalf("workers = %+v", hr.Workers)
	}
}

// TestExtraMetricsRendered: ExtraMetrics rows land in the exposition with
// their labels, one header per metric name.
func TestExtraMetricsRendered(t *testing.T) {
	srv := New(Config{
		ExtraMetrics: func() ([]GaugeRow, []CounterRow) {
			return []GaugeRow{
					{Name: "bundled_worker_breaker_open", Help: "Breaker open (1) per worker.", Labels: `worker="w0"`, Value: 1},
					{Name: "bundled_worker_breaker_open", Labels: `worker="w1"`, Value: 0},
				}, []CounterRow{
					{Name: "bundled_worker_breaker_trips_total", Help: "Breaker trips per worker.", Labels: `worker="w0"`, Value: 3},
				}
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, body := postGet(t, ts, "/metrics")
	for _, want := range []string{
		`bundled_worker_breaker_open{worker="w0"} 1`,
		`bundled_worker_breaker_open{worker="w1"} 0`,
		`bundled_worker_breaker_trips_total{worker="w0"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, body)
		}
	}
	if strings.Count(body, "# TYPE bundled_worker_breaker_open gauge") != 1 {
		t.Fatal("labelled gauge rows must share one TYPE header")
	}
}

// TestUploadCostsEntriesNotShape: a corpus costs its entries, not its
// declared consumers × items. A 2-entry 8,000 × 8,000 upload indexes in
// under 64 MB; at stripe size 1 (8,000 stripes × 8,001 shard offsets) and
// with 2^31 consumers the same upload gets a 400 before anything that
// size is allocated.
func TestUploadCostsEntriesNotShape(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, body := postJSON(t, ts, "/v1/corpora", sparseUpload("wide", 8000, ""))
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("8,000 × 8,000 upload: status %d, want 201 (%s)", resp.StatusCode, body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Errorf("2-entry 8,000 × 8,000 upload allocated %d MB, want under 64", alloc>>20)
	}

	for _, c := range []struct{ name, body string }{
		{"stripe size 1", sparseUpload("striped", 8000, `"stripe_size":1`)},
		{"2^31 consumers", sparseUpload("tall", 1<<31, "")},
	} {
		if resp, body := postJSON(t, ts, "/v1/corpora", c.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, body)
		}
	}
}

// sparseUpload is a 2-entry corpus upload over 8,000 items: consumers and
// options (inner JSON of the options object) set its declared shape.
func sparseUpload(id string, consumers int, options string) string {
	return fmt.Sprintf(`{"id":%q,"options":{%s},"matrix":{"consumers":%d,"items":8000,"entries":[[0,0,5],[7999,7999,3]]}}`, id, options, consumers)
}

// postGet is postJSON's GET sibling.
func postGet(t testing.TB, ts *httptest.Server, path string) (*http.Response, string) {
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
