package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bundling/internal/server"
)

// FleetConfig assembles a Fleet view.
type FleetConfig struct {
	// Probes are the transports the concurrent health probes go through —
	// pass the raw (unwrapped) transports so an open breaker cannot veto a
	// probe; a transport that implements Bytes() (the HTTP transport)
	// additionally contributes its per-worker wire-byte counts.
	Probes []Transport
	// Breakers, index-aligned with Probes, joins each worker's
	// coordinator-side circuit-breaker state (nil omits the column).
	Breakers []*Breaker
	// Loads, index-aligned with Probes, joins each worker's
	// coordinator-side observed load (nil omits the column).
	Loads []*WorkerLoad
	// Timeout bounds each probe (0 = 2s).
	Timeout time.Duration
}

// Fleet serves the coordinator's merged fleet-introspection view: one call
// probes every worker's health concurrently and joins the replies with the
// coordinator's breaker and load state — the GET /debug/fleet data source,
// replacing a hand-rolled scrape of N worker daemons.
type Fleet struct {
	cfg FleetConfig
}

// NewFleet returns a fleet view over the given workers.
func NewFleet(cfg FleetConfig) *Fleet {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	return &Fleet{cfg: cfg}
}

// byteser is the optional per-transport wire-accounting surface (the HTTP
// transport implements it; in-process transports move no bytes).
type byteser interface{ Bytes() TransportBytes }

// probe runs Health on every transport concurrently, each under its own
// timeout, so one call answers within one probe timeout even when several
// workers are down.
func probe(ctx context.Context, ts []Transport, timeout time.Duration) ([]WorkerHealth, []error) {
	hs := make([]WorkerHealth, len(ts))
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for i, t := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			hs[i], errs[i] = t.Health(pctx)
		}()
	}
	wg.Wait()
	return hs, errs
}

// statusDoc renders one breaker's state for /healthz and /debug/fleet.
func statusDoc(b *Breaker) server.WorkerStatusDoc {
	s := b.Snapshot()
	return server.WorkerStatusDoc{
		Addr: s.Addr, State: s.State, FailureRate: s.FailureRate,
		Trips: s.Trips, RetryInMs: s.RetryInMs,
	}
}

// WorkerStatus reports every configured breaker's state — the /healthz
// workers array (server.Config.WorkerStatus).
func (f *Fleet) WorkerStatus() []server.WorkerStatusDoc {
	docs := make([]server.WorkerStatusDoc, len(f.cfg.Breakers))
	for i, b := range f.cfg.Breakers {
		docs[i] = statusDoc(b)
	}
	return docs
}

// Report probes every worker concurrently and assembles the merged view.
func (f *Fleet) Report(ctx context.Context) server.FleetResponse {
	start := time.Now()
	healths, errs := probe(ctx, f.cfg.Probes, f.cfg.Timeout)
	docs := make([]server.FleetWorkerDoc, len(f.cfg.Probes))
	for i, t := range f.cfg.Probes {
		doc := server.FleetWorkerDoc{Addr: t.Addr(), Spans: []server.FleetSpanDoc{}}
		if errs[i] != nil {
			doc.Error = errs[i].Error()
		} else {
			health := healths[i]
			doc.Reachable = true
			doc.Status = health.Status
			doc.UptimeSeconds = health.UptimeSeconds
			doc.StaleRejections = health.StaleRejections
			doc.Ops = health.Ops
			for _, sp := range health.Spans {
				doc.Spans = append(doc.Spans, server.FleetSpanDoc{
					Corpus:      sp.Corpus,
					Version:     sp.Version,
					StartStripe: sp.StartStripe,
					EndStripe:   sp.EndStripe,
					Entries:     sp.Entries,
					Requests:    sp.Requests,
				})
			}
		}
		if i < len(f.cfg.Breakers) && f.cfg.Breakers[i] != nil {
			st := statusDoc(f.cfg.Breakers[i])
			doc.Breaker = &st
		}
		if i < len(f.cfg.Loads) && f.cfg.Loads[i] != nil {
			snap := f.cfg.Loads[i].Snapshot()
			load := &server.WorkerLoadDoc{
				RPCs:          snap.RPCs,
				Errors:        snap.Errors,
				BreakerSkips:  snap.BreakerSkips,
				LatencyEWMAMs: snap.LatencyEWMAMs,
				Ops:           snap.Ops,
			}
			if b, ok := t.(byteser); ok {
				tb := b.Bytes()
				load.BytesOut, load.BytesIn, load.FeedBytesBin = tb.BytesOut, tb.BytesIn, tb.FeedBin
			}
			doc.Load = load
		}
		docs[i] = doc
	}
	resp := server.FleetResponse{
		Workers: docs,
		ProbeMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	for _, d := range docs {
		if d.Reachable {
			resp.Reachable++
		}
	}
	return resp
}

// MetricRows renders the coordinator-side fleet state as /metrics rows — the
// bundled_worker_* breaker and load families plus, for a fleet of HTTP
// workers, the span-feed byte counter — which cmd/bundled contributes via
// server.Config.ExtraMetrics. Rows sharing a metric name are adjacent: the
// renderer emits one HELP/TYPE header per consecutive name run.
func (f *Fleet) MetricRows() ([]server.GaugeRow, []server.CounterRow) {
	bs := make([]BreakerSnapshot, len(f.cfg.Breakers))
	for i, b := range f.cfg.Breakers {
		bs[i] = b.Snapshot()
	}
	var ls []LoadSnapshot
	for _, ld := range f.cfg.Loads {
		if ld != nil {
			ls = append(ls, ld.Snapshot())
		}
	}
	var gauges []server.GaugeRow
	var counters []server.CounterRow
	gauge := func(name, help, addr string, v float64) {
		gauges = append(gauges, server.GaugeRow{Name: name, Help: help, Labels: fmt.Sprintf("worker=%q", addr), Value: v})
	}
	counter := func(name, help, addr string, v int64) {
		counters = append(counters, server.CounterRow{Name: name, Help: help, Labels: fmt.Sprintf("worker=%q", addr), Value: v})
	}
	for _, s := range bs {
		open := 0.0
		if s.State != "closed" {
			open = 1
		}
		gauge("bundled_worker_breaker_open", "1 while the worker's circuit breaker is open or probing, 0 when closed.", s.Addr, open)
	}
	for _, s := range bs {
		gauge("bundled_worker_breaker_failure_rate", "Failure fraction in the worker's breaker window.", s.Addr, s.FailureRate)
	}
	for _, s := range ls {
		gauge("bundled_worker_rpc_latency_ewma_ms", "EWMA of successful RPC latency per worker (milliseconds).", s.Addr, s.LatencyEWMAMs)
	}
	for _, s := range bs {
		counter("bundled_worker_breaker_trips_total", "Times the worker's circuit breaker opened.", s.Addr, s.Trips)
	}
	for _, s := range bs {
		counter("bundled_worker_breaker_rejected_total", "Calls rejected without dialing by the worker's open breaker.", s.Addr, s.Rejected)
	}
	for _, t := range f.cfg.Probes {
		if _, ok := t.(byteser); ok {
			counters = append(counters, server.CounterRow{Name: "bundled_feed_bytes_total", Help: "Span-feed payload bytes shipped to workers, by codec.", Labels: `codec="bin"`, Value: FeedBytes()})
			break
		}
	}
	for _, s := range ls {
		counter("bundled_worker_rpcs_total", "Coordinator RPCs issued per worker.", s.Addr, s.RPCs)
	}
	for _, s := range ls {
		counter("bundled_worker_rpc_errors_total", "Coordinator RPCs that failed per worker (breaker rejections excluded).", s.Addr, s.Errors)
	}
	for _, s := range ls {
		counter("bundled_worker_breaker_skips_total", "Coordinator RPCs rejected by an open circuit breaker per worker.", s.Addr, s.BreakerSkips)
	}
	return gauges, counters
}
