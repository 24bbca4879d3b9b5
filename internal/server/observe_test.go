package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bundling"
)

// The instrumentation configurations compared below: everything off,
// tracing only, and the shipped default (tracing and usage accounting).
var (
	observeOff     = Config{TraceRing: -1, UsageTopK: -1}
	observeTracing = Config{UsageTopK: -1}
	observeShipped = Config{}
)

const (
	observeEvaluate = `{"offers":[[0,1],[2,3]]}`
	observeSolve    = `{"algorithm":"matching"}`
)

// observeHandler serves corpus "c" (testMatrix(200, 20, 1)) under cfg and
// returns a function that sends one POST to path and fails the test on any
// status but 200. The request is sent once before returning, so sessions,
// meters, pools and the round-one memo are warm.
func observeHandler(tb testing.TB, cfg Config, path, body string) func() {
	tb.Helper()
	srv := New(cfg)
	tb.Cleanup(srv.Close)
	if err := Preload(srv, "c", testMatrix(tb, 200, 20, 1), bundling.Options{}); err != nil {
		tb.Fatal(err)
	}
	h := srv.Handler()
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
		}
	}
	serve()
	return serve
}

// TestObserveAllocs gates the cost of tracing and usage accounting in
// allocations per request, which repeat exactly where throughput ratios
// do not. Usage accounting must allocate nothing. Tracing may add at most
// the allocations it added when this gate was set, the tracing field below
// (a cached evaluate went from 65 to 88).
func TestObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts jitter under the race detector")
	}
	for _, rq := range []struct {
		name, path, body string
		uncached         bool
		tracing          float64
	}{
		{"cached evaluate", "/v1/corpora/c/evaluate", observeEvaluate, false, 23},
		{"cached solve", "/v1/corpora/c/solve", observeSolve, false, 24},
		{"uncached evaluate", "/v1/corpora/c/evaluate", observeEvaluate, true, 36},
		{"uncached solve", "/v1/corpora/c/solve", observeSolve, true, 57},
	} {
		var allocs [3]float64
		for i, cfg := range []Config{observeOff, observeTracing, observeShipped} {
			if rq.uncached {
				cfg.CacheEntries = -1
			}
			allocs[i] = testing.AllocsPerRun(50, observeHandler(t, cfg, rq.path, rq.body))
		}
		off, traced, shipped := allocs[0], allocs[1], allocs[2]
		t.Logf("%s: %.0f allocs off, %.0f with tracing, %.0f with tracing and usage", rq.name, off, traced, shipped)
		if traced-off > rq.tracing {
			t.Errorf("%s: tracing adds %.0f allocs, want at most %.0f", rq.name, traced-off, rq.tracing)
		}
		if shipped != traced {
			t.Errorf("%s: usage accounting adds %.0f allocs, want 0", rq.name, shipped-traced)
		}
	}
}

// BenchmarkObserve times a cached evaluate through the handler under each
// configuration. It gates nothing: on a shared host the spread between
// runs is wider than the overhead being measured.
func BenchmarkObserve(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"off", observeOff}, {"tracing", observeTracing}, {"shipped", observeShipped}} {
		b.Run(c.name, func(b *testing.B) {
			serve := observeHandler(b, c.cfg, "/v1/corpora/c/evaluate", observeEvaluate)
			b.ReportAllocs()
			for b.Loop() {
				serve()
			}
		})
	}
}
