package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bundling/internal/obs"
)

// latencyBuckets are the cumulative histogram upper bounds (seconds) of the
// request-duration metrics, exponential from 1ms to 10s.
var latencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// histogram is a fixed-bucket cumulative latency histogram, safe for
// concurrent observation.
type histogram struct {
	counts  []atomic.Int64 // one per bucket, plus a final +Inf slot
	sumNano atomic.Int64
	total   atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(latencyBuckets)+1)}
}

// observe records one request duration.
func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, s)
	h.counts[i].Add(1)
	h.sumNano.Add(int64(d))
	h.total.Add(1)
}

// Metrics is the reusable operational-metrics core shared by the bundled
// server and the bundleworker daemon: uptime, per-operation request
// counters and latency histograms, and an error counter, rendered in the
// Prometheus text exposition under the given name prefix. All state is
// atomic; one Metrics serves any number of goroutines.
type Metrics struct {
	prefix string
	start  time.Time

	requests sync.Map // op string → *atomic.Int64
	errors   atomic.Int64

	latency sync.Map // op string → *histogram
	stages  sync.Map // stage string → *histogram
}

// NewMetrics returns a metrics core whose exposition names start with
// prefix (e.g. "bundled" → bundled_requests_total).
func NewMetrics(prefix string) *Metrics {
	return &Metrics{prefix: prefix, start: time.Now()}
}

// Uptime returns the time since the core was created.
func (m *Metrics) Uptime() time.Duration { return time.Since(m.start) }

// opCounter returns the request counter for op, creating it on first use.
func (m *Metrics) opCounter(op string) *atomic.Int64 {
	if c, ok := m.requests.Load(op); ok {
		return c.(*atomic.Int64)
	}
	c, _ := m.requests.LoadOrStore(op, new(atomic.Int64))
	return c.(*atomic.Int64)
}

// Observe records one completed request of the given op.
func (m *Metrics) Observe(op string, d time.Duration) {
	m.opCounter(op).Add(1)
	h, ok := m.latency.Load(op)
	if !ok {
		h, _ = m.latency.LoadOrStore(op, newHistogram())
	}
	h.(*histogram).observe(d)
}

// CountError records one request that ended in an error response.
func (m *Metrics) CountError() { m.errors.Add(1) }

// Counts snapshots the per-operation request counters — the worker's
// health report embeds them so the coordinator's fleet view can show each
// worker's op mix without a second scrape.
func (m *Metrics) Counts() map[string]int64 {
	out := map[string]int64{}
	m.requests.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// ObserveStage records one per-stage duration from the request tracer
// (queue wait, index build, solve, per-worker RPC, persist, …), exposed as
// the <prefix>_stage_seconds histogram family. The signature matches the
// tracer's OnSpanEnd hook, so every span feeds it — including spans past a
// trace's record cap.
func (m *Metrics) ObserveStage(stage string, d time.Duration) {
	h, ok := m.stages.Load(stage)
	if !ok {
		h, _ = m.stages.LoadOrStore(stage, newHistogram())
	}
	h.(*histogram).observe(d)
}

// GaugeRow and CounterRow are the extra exposition rows an embedding server
// contributes to Render (session gauges, cache counters, per-worker breaker
// gauges, …). Names must carry the server's own prefix. Labels, if set, is
// a pre-rendered Prometheus label list without braces (`worker="w0"`);
// consecutive rows sharing a Name emit one HELP/TYPE header.
type (
	GaugeRow struct {
		Name, Help, Labels string
		Value              float64
	}
	CounterRow struct {
		Name, Help, Labels string
		Value              int64
	}
)

// Render writes the Prometheus text exposition: uptime, the extra gauges,
// per-op request counters, the error counter, the extra counters, and the
// per-op latency histograms.
func (m *Metrics) Render(w io.Writer, gauges []GaugeRow, counters []CounterRow) {
	fmt.Fprintf(w, "# HELP %s_uptime_seconds Seconds since the server started.\n", m.prefix)
	fmt.Fprintf(w, "# TYPE %s_uptime_seconds gauge\n", m.prefix)
	fmt.Fprintf(w, "%s_uptime_seconds %g\n", m.prefix, m.Uptime().Seconds())
	rt := obs.ReadRuntime()
	gauges = append([]GaugeRow{
		{Name: m.prefix + "_goroutines", Help: "Live goroutines in the process.", Value: float64(rt.Goroutines)},
		{Name: m.prefix + "_heap_alloc_bytes", Help: "Bytes of allocated heap objects.", Value: float64(rt.HeapAlloc)},
		{Name: m.prefix + "_heap_sys_bytes", Help: "Bytes of heap obtained from the OS.", Value: float64(rt.HeapSys)},
		{Name: m.prefix + "_gc_pause_seconds", Help: "Cumulative stop-the-world GC pause time (monotonically increasing).", Value: rt.GCPauseTotal.Seconds()},
	}, gauges...)
	counters = append([]CounterRow{
		{Name: m.prefix + "_gc_runs_total", Help: "Completed garbage-collection cycles.", Value: int64(rt.NumGC)},
	}, counters...)
	prev := ""
	for _, g := range gauges {
		if g.Name != prev {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.Name, g.Help, g.Name)
			prev = g.Name
		}
		if g.Labels != "" {
			fmt.Fprintf(w, "%s{%s} %g\n", g.Name, g.Labels, g.Value)
		} else {
			fmt.Fprintf(w, "%s %g\n", g.Name, g.Value)
		}
	}

	fmt.Fprintf(w, "# HELP %s_requests_total Completed requests by operation.\n", m.prefix)
	fmt.Fprintf(w, "# TYPE %s_requests_total counter\n", m.prefix)
	for _, op := range m.ops(&m.requests) {
		c, _ := m.requests.Load(op)
		fmt.Fprintf(w, "%s_requests_total{op=%q} %d\n", m.prefix, op, c.(*atomic.Int64).Load())
	}
	all := append([]CounterRow{
		{Name: m.prefix + "_errors_total", Help: "Requests that ended in an error response.", Value: m.errors.Load()},
	}, counters...)
	prev = ""
	for _, c := range all {
		if c.Name != prev {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", c.Name, c.Help, c.Name)
			prev = c.Name
		}
		if c.Labels != "" {
			fmt.Fprintf(w, "%s{%s} %d\n", c.Name, c.Labels, c.Value)
		} else {
			fmt.Fprintf(w, "%s %d\n", c.Name, c.Value)
		}
	}

	m.renderHistogramFamily(w, &m.latency, "request_duration_seconds", "op", "Request latency by operation.")
	m.renderHistogramFamily(w, &m.stages, "stage_seconds", "stage", "Per-stage latency from the request tracer (queue, index, solve, rpc, persist, …).")
}

// renderHistogramFamily writes one labeled histogram family from a
// sync.Map of label value → *histogram; empty families emit nothing.
func (m *Metrics) renderHistogramFamily(w io.Writer, sm *sync.Map, name, label, help string) {
	keys := m.ops(sm)
	if len(keys) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s_%s %s\n", m.prefix, name, help)
	fmt.Fprintf(w, "# TYPE %s_%s histogram\n", m.prefix, name)
	for _, key := range keys {
		hv, _ := sm.Load(key)
		h := hv.(*histogram)
		var cum int64
		for i, le := range latencyBuckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "%s_%s_bucket{%s=%q,le=%q} %d\n", m.prefix, name, label, key, trimFloat(le), cum)
		}
		cum += h.counts[len(latencyBuckets)].Load()
		fmt.Fprintf(w, "%s_%s_bucket{%s=%q,le=\"+Inf\"} %d\n", m.prefix, name, label, key, cum)
		fmt.Fprintf(w, "%s_%s_sum{%s=%q} %g\n", m.prefix, name, label, key, time.Duration(h.sumNano.Load()).Seconds())
		fmt.Fprintf(w, "%s_%s_count{%s=%q} %d\n", m.prefix, name, label, key, h.total.Load())
	}
}

// ops returns a sync.Map's string keys sorted, for stable rendering.
func (m *Metrics) ops(sm *sync.Map) []string {
	var out []string
	sm.Range(func(k, _ any) bool { out = append(out, k.(string)); return true })
	sort.Strings(out)
	return out
}

// metrics wraps the shared core with the bundled server's own counters.
type metrics struct {
	*Metrics

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	uploads   atomic.Int64
	evictions atomic.Int64

	authFailures atomic.Int64 // 401s: missing or unknown API keys
	quotaRPS     atomic.Int64 // 429s from the request-rate quota
	quotaCorpora atomic.Int64 // 429s from the per-tenant corpus-count quota
	quotaEntries atomic.Int64 // 429s from the per-tenant entry quota
	restores     atomic.Int64 // sessions restored from the corpus store
	storeErrors  atomic.Int64 // persistence operations that failed

	shedRequests     atomic.Int64 // 503s from the solve/evaluate admission gate
	deadlineExceeded atomic.Int64 // 504s: runs that outlived their execution budget
	handlerPanics    atomic.Int64 // handler panics converted to 500 by observe
}

func newMetrics() *metrics { return &metrics{Metrics: NewMetrics("bundled")} }

// render writes the server's full exposition through the shared core.
// persisted is the corpus store's live record count (negative when the
// daemon runs without persistence, which omits the gauge). extraG and
// extraC are the Config.ExtraMetrics rows (fleet breaker state, …).
func (m *metrics) render(w io.Writer, sessions, cacheEntries, persisted int, extraG []GaugeRow, extraC []CounterRow) {
	gauges := []GaugeRow{
		{Name: "bundled_sessions", Help: "Live corpus sessions in the registry.", Value: float64(sessions)},
		{Name: "bundled_result_cache_entries", Help: "Entries in the result cache.", Value: float64(cacheEntries)},
	}
	if persisted >= 0 {
		gauges = append(gauges, GaugeRow{Name: "bundled_persisted_corpora", Help: "Live corpora in the persistence store.", Value: float64(persisted)})
	}
	gauges = append(gauges, extraG...)
	counters := []CounterRow{
		{Name: "bundled_cache_hits_total", Help: "Result-cache hits.", Value: m.cacheHits.Load()},
		{Name: "bundled_cache_misses_total", Help: "Result-cache misses.", Value: m.cacheMisses.Load()},
		{Name: "bundled_uploads_total", Help: "Corpus uploads (session creations and replacements).", Value: m.uploads.Load()},
		{Name: "bundled_session_evictions_total", Help: "Sessions evicted by the registry's LRU bound.", Value: m.evictions.Load()},
		{Name: "bundled_auth_failures_total", Help: "Requests rejected with 401 for a missing or unknown API key.", Value: m.authFailures.Load()},
		{Name: "bundled_quota_rps_rejections_total", Help: "Requests rejected with 429 by the per-tenant request-rate quota.", Value: m.quotaRPS.Load()},
		{Name: "bundled_quota_corpora_rejections_total", Help: "Uploads rejected with 429 by the per-tenant corpus-count quota.", Value: m.quotaCorpora.Load()},
		{Name: "bundled_quota_entries_rejections_total", Help: "Uploads rejected with 429 by the per-tenant entry quota.", Value: m.quotaEntries.Load()},
		{Name: "bundled_restored_sessions_total", Help: "Sessions restored from the corpus store (at startup or by lazy reload of an evicted corpus).", Value: m.restores.Load()},
		{Name: "bundled_store_errors_total", Help: "Corpus persistence operations that failed.", Value: m.storeErrors.Load()},
		{Name: "bundled_shed_requests_total", Help: "Requests shed with 503 by the solve/evaluate admission gate.", Value: m.shedRequests.Load()},
		{Name: "bundled_deadline_exceeded_total", Help: "Runs that outlived their execution budget and returned 504.", Value: m.deadlineExceeded.Load()},
		{Name: "bundled_handler_panics_total", Help: "Handler panics converted to 500 responses.", Value: m.handlerPanics.Load()},
	}
	counters = append(counters, extraC...)
	m.Render(w, gauges, counters)
}

// trimFloat renders a bucket bound the way Prometheus clients do.
func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }
