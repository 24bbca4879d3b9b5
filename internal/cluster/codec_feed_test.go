package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bundling"
)

// TestClusterBinaryFeedMatchesLocal is the wire-format acceptance gate: a
// fleet fed over real HTTP — binary codec span bodies — must match the
// single-machine Solver within 1e-9 for all five algorithms and the
// evaluate path, and the feed must actually have gone binary (the
// per-process FeedBytes counter grows).
func TestClusterBinaryFeedMatchesLocal(t *testing.T) {
	w := testMatrix(t, 150, 12, 21)
	wk0, wk1 := NewWorker(WorkerConfig{}), NewWorker(WorkerConfig{})
	ts0 := httptest.NewServer(wk0.Handler())
	defer ts0.Close()
	ts1 := httptest.NewServer(wk1.Handler())
	defer ts1.Close()
	transports, err := Transports(ts0.URL+","+ts1.URL, nil)
	if err != nil {
		t.Fatal(err)
	}

	binBefore := FeedBytes()
	opts := bundling.Options{Strategy: bundling.Mixed, Theta: -0.1, StripeSize: 16}
	local, err := bundling.NewSolver(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewSolver(w, opts, Config{Workers: transports})
	if err != nil {
		t.Fatal(err)
	}
	algos := bundling.Algorithms()
	if len(algos) != 5 {
		t.Fatalf("algorithm registry has %d entries, want 5", len(algos))
	}
	for _, alg := range algos {
		want, err := local.Solve(alg)
		if err != nil {
			t.Fatalf("%s local: %v", alg.Name(), err)
		}
		got, err := cs.Solve(alg)
		if err != nil {
			t.Fatalf("%s binary-fed cluster: %v", alg.Name(), err)
		}
		sameConfig(t, "bin-feed/"+alg.Name(), got, want)
	}
	wantEval, err := local.Evaluate(evalOffers())
	if err != nil {
		t.Fatal(err)
	}
	gotEval, err := cs.Evaluate(evalOffers())
	if err != nil {
		t.Fatal(err)
	}
	sameConfig(t, "bin-feed/evaluate", gotEval, wantEval)

	if binAfter := FeedBytes(); binAfter <= binBefore {
		t.Fatalf("binary feed bytes did not grow: %d -> %d", binBefore, binAfter)
	}
}

// TestAssignBinaryRejectedOnRealError: a worker-side failure (e.g. 500) on
// a span feed surfaces to the caller.
func TestAssignBinaryRejectedOnRealError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		_ = json.NewEncoder(w).Encode(ErrorResponse{Error: "worker exploded"})
	}))
	defer ts.Close()
	tr := NewHTTP(ts.URL, nil)
	w := testMatrix(t, 40, 5, 23)
	doc := spanDocFor(w, 16)
	err := tr.Assign(t.Context(), "demo", &AssignRequest{Corpus: "demo", Span: doc})
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("assign error = %v, want the 500 surfaced", err)
	}
}

// TestWorkerRejectsNonCodecFeeds: span and delta feeds travel only as codec
// envelopes; a body in any other encoding is answered 415 and registers
// nothing.
func TestWorkerRejectsNonCodecFeeds(t *testing.T) {
	wk := NewWorker(WorkerConfig{})
	ts := httptest.NewServer(wk.Handler())
	defer ts.Close()
	span, err := json.Marshal(AssignRequest{Corpus: "demo", Span: spanDocFor(testMatrix(t, 40, 5, 24), 16)})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := json.Marshal(DeltaRequest{BaseCorpus: "demo", FromVersion: 1, ToVersion: 2})
	if err != nil {
		t.Fatal(err)
	}
	for path, body := range map[string][]byte{"/v1/spans/demo": span, "/v1/spans/next/delta": delta} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("JSON POST %s = %d, want 415", path, resp.StatusCode)
		}
	}
	if spans := wk.Health().Spans; len(spans) != 0 {
		t.Fatalf("JSON feeds registered spans: %+v", spans)
	}
}
