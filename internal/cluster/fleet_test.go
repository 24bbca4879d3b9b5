package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"bundling"
	"bundling/internal/server"
)

// TestFleetReportJoinsLiveState drives real traffic through a 2-worker
// cluster wired the way cmd/bundled wires it — raw transports wrapped in
// breakers then load recorders — and asserts GET /debug/fleet serves the
// joined view: both workers reachable with hot spans, and the coordinator's
// per-worker load and breaker columns filled in.
func TestFleetReportJoinsLiveState(t *testing.T) {
	workers := []*Worker{NewWorker(WorkerConfig{}), NewWorker(WorkerConfig{})}
	raw := []Transport{NewLocal(workers[0], "w0"), NewLocal(workers[1], "w1")}
	wrapped, breakers := WrapBreakers(raw, BreakerConfig{})
	transports, loads := WrapLoad(wrapped)

	w := testMatrix(t, 150, 12, 7)
	opts := bundling.Options{Theta: -0.1, StripeSize: 16}
	cs, err := NewSolver(w, opts, Config{Workers: transports})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if _, err := cs.Solve(bundling.Matching()); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Evaluate(evalOffers()); err != nil {
		t.Fatal(err)
	}

	fl := NewFleet(FleetConfig{Probes: raw, Breakers: breakers, Loads: loads})
	srv := server.New(server.Config{Fleet: fl.Report})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	httpResp, err := http.Get(ts.URL + "/debug/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("fleet: %d", httpResp.StatusCode)
	}
	var resp server.FleetResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}

	if resp.Reachable != 2 || len(resp.Workers) != 2 {
		t.Fatalf("fleet: reachable=%d workers=%d", resp.Reachable, len(resp.Workers))
	}
	var spanRequests int64
	for i, wk := range resp.Workers {
		want := fmt.Sprintf("w%d", i)
		if wk.Addr != want || !wk.Reachable || wk.Status != "ok" {
			t.Fatalf("worker %d: %+v", i, wk)
		}
		if len(wk.Spans) == 0 {
			t.Errorf("worker %s: no spans", wk.Addr)
		}
		for _, sp := range wk.Spans {
			spanRequests += sp.Requests
			if sp.Corpus == "" || sp.Entries <= 0 {
				t.Errorf("worker %s: bad span %+v", wk.Addr, sp)
			}
		}
		if wk.Load == nil || wk.Load.RPCs == 0 {
			t.Errorf("worker %s: load not joined: %+v", wk.Addr, wk.Load)
		}
		if wk.Load != nil && wk.Load.Errors != 0 {
			t.Errorf("worker %s: unexpected errors: %+v", wk.Addr, wk.Load)
		}
		if wk.Breaker == nil || wk.Breaker.State != "closed" {
			t.Errorf("worker %s: breaker not joined: %+v", wk.Addr, wk.Breaker)
		}
	}
	if spanRequests == 0 {
		t.Error("no span saw any requests after solve+evaluate")
	}

	// The unreachable case: a fleet over a dead HTTP endpoint reports it
	// down without failing the whole view.
	dead := NewHTTP("127.0.0.1:1", nil)
	flDown := NewFleet(FleetConfig{Probes: []Transport{raw[0], dead}})
	down := flDown.Report(t.Context())
	if down.Reachable != 1 || len(down.Workers) != 2 {
		t.Fatalf("down fleet: %+v", down)
	}
	if down.Workers[1].Reachable || down.Workers[1].Error == "" {
		t.Fatalf("dead worker doc: %+v", down.Workers[1])
	}
}

// TestFleetMetricRows: the coordinator-side load state renders as bounded,
// name-major /metrics rows — one series per worker per family.
func TestFleetMetricRows(t *testing.T) {
	workers := []*Worker{NewWorker(WorkerConfig{}), NewWorker(WorkerConfig{})}
	raw := []Transport{NewLocal(workers[0], "w0"), NewLocal(workers[1], "w1")}
	transports, loads := WrapLoad(raw)
	w := testMatrix(t, 80, 10, 3)
	cs, err := NewSolver(w, bundling.Options{StripeSize: 16}, Config{Workers: transports})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if _, err := cs.Solve(bundling.Greedy()); err != nil {
		t.Fatal(err)
	}

	fl := NewFleet(FleetConfig{Probes: raw, Loads: loads})
	gauges, counters := fl.MetricRows()
	if len(gauges) != 2 { // one EWMA gauge per worker
		t.Fatalf("gauges: %+v", gauges)
	}
	if len(counters) != 6 { // three counter families x two workers
		t.Fatalf("counters: %+v", counters)
	}
	// Name-major ordering: consecutive rows of a family share the name, so
	// the exposition writer emits one HELP/TYPE header per family.
	for i := 1; i < len(counters); i += 2 {
		if counters[i].Name != counters[i-1].Name {
			t.Fatalf("counter rows not grouped by name: %q then %q", counters[i-1].Name, counters[i].Name)
		}
	}
	for _, c := range counters {
		if c.Name == "bundled_worker_rpcs_total" && c.Value == 0 {
			t.Errorf("no RPCs recorded for %s", c.Labels)
		}
	}
}

// TestFleetMetricRowsDaemonWiring: over HTTP workers wrapped the way
// cmd/bundled wraps them, the rows come out family by family in the
// daemon's exposition order — breaker gauges, then load gauges; breaker
// counters, the span-feed byte counter, then load counters — and
// WorkerStatus reports one breaker per worker.
func TestFleetMetricRowsDaemonWiring(t *testing.T) {
	raw := []Transport{NewHTTP("127.0.0.1:1", nil), NewHTTP("127.0.0.1:2", nil)}
	wrapped, breakers := WrapBreakers(raw, BreakerConfig{})
	_, loads := WrapLoad(wrapped)
	fl := NewFleet(FleetConfig{Probes: raw, Breakers: breakers, Loads: loads})
	gauges, counters := fl.MetricRows()
	var names []string
	for _, g := range gauges {
		names = append(names, g.Name)
	}
	for _, c := range counters {
		names = append(names, c.Name)
	}
	want := []string{
		"bundled_worker_breaker_open", "bundled_worker_breaker_open",
		"bundled_worker_breaker_failure_rate", "bundled_worker_breaker_failure_rate",
		"bundled_worker_rpc_latency_ewma_ms", "bundled_worker_rpc_latency_ewma_ms",
		"bundled_worker_breaker_trips_total", "bundled_worker_breaker_trips_total",
		"bundled_worker_breaker_rejected_total", "bundled_worker_breaker_rejected_total",
		"bundled_feed_bytes_total",
		"bundled_worker_rpcs_total", "bundled_worker_rpcs_total",
		"bundled_worker_rpc_errors_total", "bundled_worker_rpc_errors_total",
		"bundled_worker_breaker_skips_total", "bundled_worker_breaker_skips_total",
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("row order:\n got %v\nwant %v", names, want)
	}
	if gauges[0].Labels != `worker="http://127.0.0.1:1"` || counters[4].Labels != `codec="bin"` {
		t.Fatalf("labels: %q, %q", gauges[0].Labels, counters[4].Labels)
	}
	st := fl.WorkerStatus()
	if len(st) != 2 || st[1].Addr != "http://127.0.0.1:2" || st[1].State != "closed" {
		t.Fatalf("worker status: %+v", st)
	}
}
