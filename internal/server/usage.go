package server

import (
	"net/http"
	"strings"
	"time"

	"bundling/internal/usage"
)

// AnonTenant is the accounting key for unauthenticated traffic: with auth
// disabled every request shares the anonymous tenant "", which would render
// as an empty metric label, so the accountant files it under this name.
const AnonTenant = "anonymous"

// usageSet is the server's workload accountant: one bounded meter per
// dimension. Both share the same top-K and window configuration.
type usageSet struct {
	tenants *usage.Meter
	corpora *usage.Meter
}

// newUsageSet builds the accountant; nil when topK is negative (accounting
// disabled, /v1/usage absent).
func newUsageSet(topK int, window time.Duration) *usageSet {
	if topK < 0 {
		return nil
	}
	cfg := usage.Config{TopK: topK, Window: window}
	return &usageSet{tenants: usage.NewMeter(cfg), corpora: usage.NewMeter(cfg)}
}

// corpusOwner resolves a corpus ID to its owning tenant. ok=false when the
// ID is unknown (e.g. metered traffic to a since-deleted corpus).
func (s *Server) corpusOwner(id string) (owner string, ok bool) {
	if sess, live := s.reg.peek(id); live {
		return sess.tenant, true
	}
	return "", false
}

// handleUsage serves the workload-accounting snapshot. An open daemon
// serves the admin view: every metered tenant and corpus. With auth
// enabled the view is tenant-scoped — the caller's own tenant row plus the
// corpora it may see (its own and public ones); the overflow bucket and
// unknown corpora stay admin-only, so one tenant cannot read another's
// traffic shape.
func (s *Server) handleUsage(w http.ResponseWriter, r *http.Request) {
	resp := UsageResponse{
		Scope:         "admin",
		WindowSeconds: s.use.tenants.Window().Seconds(),
		Tenants:       s.use.tenants.Snapshot(),
		Corpora:       s.use.corpora.Snapshot(),
	}
	if s.cfg.Auth.Enabled() {
		tenant := recordOf(w).tenant
		resp.Scope = "tenant"
		resp.Tenant = tenant
		scoped := resp.Tenants[:0]
		for _, row := range resp.Tenants {
			if row.Key == tenant {
				scoped = append(scoped, row)
			}
		}
		resp.Tenants = scoped
		visible := resp.Corpora[:0]
		for _, row := range resp.Corpora {
			if row.Key == usage.Other {
				continue
			}
			if owner, known := s.corpusOwner(row.Key); known && (owner == "" || owner == tenant) {
				visible = append(visible, row)
			}
		}
		resp.Corpora = visible
	}
	if resp.Tenants == nil {
		resp.Tenants = []UsageRow{}
	}
	if resp.Corpora == nil {
		resp.Corpora = []UsageRow{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// usageMetricRows renders the accountant as labeled exposition rows —
// bundled_tenant_* and bundled_corpus_* families, at most top-K+1 series
// each, label values sanitized so a hostile ID cannot corrupt the scrape.
// The families are opt-in (Config.UsageMetrics): /metrics serves
// unauthenticated, and the label values name tenants and corpora — the
// very data the guard keeps /debug/traces and /v1/usage behind auth for —
// so by default the open endpoint stays label-free and the accountant is
// read through /v1/usage instead.
func (s *Server) usageMetricRows() ([]GaugeRow, []CounterRow) {
	if s.use == nil || !s.cfg.UsageMetrics {
		return nil, nil
	}
	var gauges []GaugeRow
	var counters []CounterRow
	for _, dim := range []struct {
		label string
		rows  []usage.Row
	}{
		{"tenant", s.use.tenants.Snapshot()},
		{"corpus", s.use.corpora.Snapshot()},
	} {
		prefix := "bundled_" + dim.label
		labels := make([]string, len(dim.rows))
		for i, row := range dim.rows {
			labels[i] = dim.label + `="` + usage.SanitizeLabel(row.Key) + `"`
		}
		counter := func(suffix, help string, val func(usage.Row) int64) {
			for i, row := range dim.rows {
				counters = append(counters, CounterRow{
					Name: prefix + suffix, Help: help, Labels: labels[i], Value: val(row),
				})
			}
		}
		counter("_requests_total", "Completed /v1 requests by "+dim.label+" (top-K, rest in \"other\").",
			func(r usage.Row) int64 { return r.Requests })
		counter("_errors_total", "Requests that ended in an error response, by "+dim.label+".",
			func(r usage.Row) int64 { return r.Errors })
		counter("_cache_hits_total", "Requests served from the result cache, by "+dim.label+".",
			func(r usage.Row) int64 { return r.CacheHits })
		counter("_bytes_in_total", "Request-body bytes read, by "+dim.label+".",
			func(r usage.Row) int64 { return r.BytesIn })
		counter("_bytes_out_total", "Response-body bytes written, by "+dim.label+".",
			func(r usage.Row) int64 { return r.BytesOut })
		for i, row := range dim.rows {
			gauges = append(gauges, GaugeRow{
				Name: prefix + "_wall_seconds", Help: "Cumulative request wall-clock seconds by " + dim.label + " (monotonically increasing).",
				Labels: labels[i], Value: row.WallSeconds,
			})
		}
		for i, row := range dim.rows {
			gauges = append(gauges, GaugeRow{
				Name: prefix + "_window_rps", Help: "Request rate over the accountant's sliding window, by " + dim.label + ".",
				Labels: labels[i], Value: row.RatePerSec,
			})
		}
	}
	return gauges, counters
}

// spanCorpusID maps a worker span key back to the corpus ID that fed it:
// the cluster coordinator keys spans as "<corpus>/<startStripe>" (see
// internal/cluster.NewSolver), so a trailing all-digit segment is
// stripped. A key without one is returned unchanged.
func spanCorpusID(key string) string {
	i := strings.LastIndexByte(key, '/')
	if i < 0 || i == len(key)-1 {
		return key
	}
	for _, r := range key[i+1:] {
		if r < '0' || r > '9' {
			return key
		}
	}
	return key[:i]
}

// handleFleet serves the merged fleet view the Config.Fleet hook assembles
// (installed by cmd/bundled in cluster mode; the route is absent
// otherwise). Like /v1/usage, the view is scoped: an open daemon serves
// the admin view, while an authenticated caller sees every worker's
// health, breaker and load state but only the span rows of corpora it may
// see (its own and public ones) — one tenant cannot read another's corpus
// IDs or per-span traffic. Spans of unknown corpora (deleted since being
// fed) stay admin-only.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	resp := s.cfg.Fleet(r.Context())
	resp.Scope = "admin"
	if s.cfg.Auth.Enabled() {
		tenant := recordOf(w).tenant
		resp.Scope = "tenant"
		resp.Tenant = tenant
		for i := range resp.Workers {
			visible := resp.Workers[i].Spans[:0]
			for _, sp := range resp.Workers[i].Spans {
				if owner, known := s.corpusOwner(spanCorpusID(sp.Corpus)); known && (owner == "" || owner == tenant) {
					visible = append(visible, sp)
				}
			}
			resp.Workers[i].Spans = visible
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
