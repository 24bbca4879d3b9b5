package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bundling"
	"bundling/internal/obs"
	"bundling/internal/server"
)

// TestTracePropagationAcrossCluster is the end-to-end observability gate:
// an HTTP coordinator over two HTTP workers serves one solve, and that one
// request must yield a single trace whose span tree covers admission, the
// solve loop and candidate pricing — and no worker RPC, since a solve forms
// its unions in process. One uncached evaluate after it must yield the
// engine's evaluate span and its stats and hist rounds on every worker,
// each rpc span tagged, with each worker's own /debug/traces recording its
// side of the RPCs under the coordinator's trace ID.
func TestTracePropagationAcrossCluster(t *testing.T) {
	workers := make([]*Worker, 2)
	transports := make([]Transport, 2)
	for i := range workers {
		workers[i] = NewWorker(WorkerConfig{TraceRing: 0}) // 0 = default ring, enabled
		wts := httptest.NewServer(workers[i].Handler())
		defer wts.Close()
		transports[i] = NewHTTP(wts.URL, nil)
	}

	srv := server.New(server.Config{
		NewSolver: func(w *bundling.Matrix, opts bundling.Options) (server.Solver, error) {
			return NewSolver(w, opts, Config{Workers: transports})
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	w := testMatrix(t, 160, 12, 9)
	if err := server.Preload(srv, "dist", w, bundling.Options{StripeSize: 16}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/corpora/dist/solve", "application/json",
		strings.NewReader(`{"algorithm":"matching"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d: %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get(obs.HeaderTrace)
	if traceID == "" {
		t.Fatal("solve response missing X-Trace-Id")
	}

	// The coordinator's ring must hold the full tree for that trace.
	doc := newestTrace(t, ts.URL)
	if doc.TraceID != traceID {
		t.Fatalf("ring trace %q != response trace %q", doc.TraceID, traceID)
	}

	spansByName := map[string][]obs.SpanDoc{}
	for _, sp := range doc.Spans {
		spansByName[sp.Name] = append(spansByName[sp.Name], sp)
	}
	for _, want := range []string{"request", "queue", "solve", "price_candidates"} {
		if len(spansByName[want]) == 0 {
			t.Errorf("trace missing %q span", want)
		}
	}
	if n := len(spansByName["rpc"]); n != 0 {
		t.Errorf("solve trace has %d rpc spans, want none", n)
	}
	// Root must parent the tree and the named stages must account for the
	// bulk of the request: the solve span alone covers the engine run.
	root := spansByName["request"][0]
	if root.Parent != 0 || root.ID != 1 {
		t.Errorf("root span id=%d parent=%d, want 1/0", root.ID, root.Parent)
	}
	if solve := spansByName["solve"][0]; solve.DurMS > root.DurMS {
		t.Errorf("solve span %.3fms longer than root %.3fms", solve.DurMS, root.DurMS)
	}

	// An uncached evaluate runs the engine under its own request's trace:
	// the engine's evaluate span, and a stats and a hist RPC on each worker.
	resp, err = http.Post(ts.URL+"/v1/corpora/dist/evaluate", "application/json",
		strings.NewReader(`{"offers":[[0,1],[2,3]]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d: %s", resp.StatusCode, body)
	}
	evalTraceID := resp.Header.Get(obs.HeaderTrace)
	evalDoc := newestTrace(t, ts.URL)
	if evalDoc.TraceID != evalTraceID {
		t.Fatalf("ring trace %q != evaluate trace %q", evalDoc.TraceID, evalTraceID)
	}
	tag := func(sp obs.SpanDoc, key string) string {
		for _, tg := range sp.Tags {
			if tg.Key == key {
				return tg.Value
			}
		}
		return ""
	}
	// Every rpc span must be tagged with its op, worker and outcome.
	rpcs := map[string]bool{} // op@worker
	var engine bool
	for _, sp := range evalDoc.Spans {
		engine = engine || sp.Name == "evaluate"
		if sp.Name == "rpc" {
			if tag(sp, "op") == "" || tag(sp, "outcome") == "" {
				t.Fatalf("rpc span missing op/outcome tags: %+v", sp.Tags)
			}
			rpcs[tag(sp, "op")+"@"+tag(sp, "worker")] = true
		}
	}
	if !engine {
		t.Error("evaluate trace missing the engine's \"evaluate\" span")
	}
	for _, op := range []string{"stats", "hist"} {
		for _, tp := range transports {
			if !rpcs[op+"@"+tp.Addr()] {
				t.Errorf("evaluate trace has no %s rpc span on worker %s (saw %v)", op, tp.Addr(), rpcs)
			}
		}
	}
	// Each worker recorded its side of the RPCs under the same trace ID.
	for i, wk := range workers {
		var matched int
		for _, wdoc := range wk.Traces(0) {
			if wdoc.TraceID != evalTraceID {
				continue
			}
			matched++
			if len(wdoc.Spans) != 1 || !strings.HasPrefix(wdoc.Spans[0].Name, "worker.") {
				t.Fatalf("worker %d: unexpected record %+v", i, wdoc.Spans)
			}
			if wdoc.Spans[0].Parent == 0 {
				t.Errorf("worker %d: record not parented to a coordinator span", i)
			}
		}
		if matched == 0 {
			t.Errorf("worker %d holds no records for trace %s", i, evalTraceID)
		}
	}
}

// newestTrace reads the newest trace in a coordinator's ring.
func newestTrace(t *testing.T, base string) obs.TraceDoc {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list server.TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(list.Traces))
	}
	return list.Traces[0]
}

// TestWorkerDebugTracesHTTP asserts the worker daemon serves its RPC
// records over its own /debug/traces route.
func TestWorkerDebugTracesHTTP(t *testing.T) {
	wk := NewWorker(WorkerConfig{TraceRing: 0})
	wts := httptest.NewServer(wk.Handler())
	defer wts.Close()

	w := testMatrix(t, 64, 12, 11)
	cs, err := NewSolver(w, bundling.Options{StripeSize: 16}, Config{Workers: []Transport{NewHTTP(wts.URL, nil)}})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	cs.exec.feeding.Wait()

	tr := obs.NewTrace("", 0)
	ctx := obs.ContextWithTrace(t.Context(), tr)
	ctx, root := obs.StartSpan(ctx, "request")
	if _, err := cs.EvaluateContext(ctx, evalOffers()); err != nil {
		t.Fatal(err)
	}
	root.End()

	resp, err := http.Get(wts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %d", resp.StatusCode)
	}
	var list struct {
		Traces []obs.TraceDoc `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, doc := range list.Traces {
		if doc.TraceID == tr.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("worker ring holds no records for trace %s", tr.ID)
	}
}

// TestDegradedPathSpans asserts the resilience ladder shows up in traces:
// a worker behind a tripped breaker records an rpc span with
// outcome=breaker_open, and the local fallback records one with
// worker=local outcome=local_fallback.
func TestDegradedPathSpans(t *testing.T) {
	_, transports := fleet(1)
	f0 := &flaky{Transport: transports[0]}
	wrapped, _ := WrapBreakers([]Transport{f0}, BreakerConfig{MinSamples: 1, Cooldown: time.Minute})
	cs, err := NewSolver(testMatrix(t, 96, 10, 12), bundling.Options{StripeSize: 16},
		Config{Workers: wrapped})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	cs.exec.feeding.Wait()
	f0.down.Store(true)

	collect := func() map[string]int {
		tr := obs.NewTrace("", 0)
		ctx := obs.ContextWithTrace(t.Context(), tr)
		ctx, root := obs.StartSpan(ctx, "request")
		if _, err := cs.EvaluateContext(ctx, evalOffers()); err != nil {
			t.Fatal(err)
		}
		root.End()
		outcomes := map[string]int{}
		for _, sp := range tr.Finish().Spans {
			if sp.Name != "rpc" {
				continue
			}
			for _, tg := range sp.Tags {
				if tg.Key == "outcome" {
					outcomes[tg.Value]++
				}
			}
		}
		return outcomes
	}

	// First pass trips the breaker (errors), falling back locally.
	first := collect()
	if first["error"] == 0 || first["local_fallback"] == 0 {
		t.Fatalf("first pass outcomes %v, want error + local_fallback", first)
	}
	// Second pass is rejected without dialing by the open breaker.
	second := collect()
	if second["breaker_open"] == 0 || second["local_fallback"] == 0 {
		t.Fatalf("second pass outcomes %v, want breaker_open + local_fallback", second)
	}
}
