package server

import (
	"fmt"
	"time"

	"bundling"
	"bundling/internal/usage"
)

// This file defines the JSON wire types of the bundled HTTP API. The thin
// client package (bundling/client) aliases them, so server and client can
// never drift apart.

// OptionsDoc is the JSON form of bundling.Options. Zero values select the
// paper's defaults, exactly as the library's zero Options does.
type OptionsDoc struct {
	Strategy      string    `json:"strategy,omitempty"` // "pure" (default) or "mixed"
	Theta         float64   `json:"theta,omitempty"`
	MaxBundleSize int       `json:"max_bundle_size,omitempty"`
	Gamma         float64   `json:"gamma,omitempty"`
	Alpha         float64   `json:"alpha,omitempty"`
	PriceLevels   int       `json:"price_levels,omitempty"`
	ProfitWeight  float64   `json:"profit_weight,omitempty"`
	UnitCosts     []float64 `json:"unit_costs,omitempty"`
	StripeSize    int       `json:"stripe_size,omitempty"`
	Parallelism   int       `json:"parallelism,omitempty"`
}

// options lowers the document to library options.
func (d OptionsDoc) options() (bundling.Options, error) {
	o := bundling.Options{
		Theta:         d.Theta,
		MaxBundleSize: d.MaxBundleSize,
		Gamma:         d.Gamma,
		Alpha:         d.Alpha,
		PriceLevels:   d.PriceLevels,
		ProfitWeight:  d.ProfitWeight,
		UnitCosts:     d.UnitCosts,
		StripeSize:    d.StripeSize,
		Parallelism:   d.Parallelism,
	}
	switch d.Strategy {
	case "", "pure":
		o.Strategy = bundling.Pure
	case "mixed":
		o.Strategy = bundling.Mixed
	default:
		return o, fmt.Errorf("unknown strategy %q (want pure or mixed)", d.Strategy)
	}
	return o, nil
}

// NewOptionsDoc lifts library options to their wire form; listings and the
// client's upload helpers share it.
func NewOptionsDoc(o bundling.Options) OptionsDoc {
	d := OptionsDoc{
		Theta:         o.Theta,
		MaxBundleSize: o.MaxBundleSize,
		Gamma:         o.Gamma,
		Alpha:         o.Alpha,
		PriceLevels:   o.PriceLevels,
		ProfitWeight:  o.ProfitWeight,
		UnitCosts:     o.UnitCosts,
		StripeSize:    o.StripeSize,
		Parallelism:   o.Parallelism,
	}
	if o.Strategy == bundling.Mixed {
		d.Strategy = "mixed"
	} else {
		d.Strategy = "pure"
	}
	return d
}

// CreateCorpusRequest uploads a corpus and creates (or replaces) its
// session. Exactly one of Matrix (format "json", the default) or CSV
// (format "csv", a ratings dataset converted with Lambda) must be set.
// Re-uploading an existing ID replaces the session and bumps its version,
// which invalidates every cached result of the previous corpus.
type CreateCorpusRequest struct {
	ID      string              `json:"id,omitempty"`     // server assigns one if empty
	Format  string              `json:"format,omitempty"` // "json" (default) or "csv"
	Lambda  float64             `json:"lambda,omitempty"` // csv ratings→WTP factor (0 = bundling.DefaultLambda)
	Options OptionsDoc          `json:"options"`
	Matrix  *bundling.MatrixDoc `json:"matrix,omitempty"`
	CSV     string              `json:"csv,omitempty"`
}

// DeltaCellDoc is one mutation cell of a PATCH request: set (consumer,
// item) to value, or delete the cell. Within one request the last write to
// a coordinate wins.
type DeltaCellDoc = bundling.DeltaCell

// MutateCorpusRequest applies a delta upsert to a corpus in place of a full
// re-upload. IfGeneration, when non-zero, makes the mutation conditional:
// it must equal the corpus's current generation or the request fails with
// 409 and nothing is applied — the optimistic-concurrency handle for
// read-modify-write callers. The binary alternative is a codec delta
// envelope (Content-Type application/x-bundling-codec) carrying the same
// cells and condition.
type MutateCorpusRequest struct {
	IfGeneration int            `json:"if_generation,omitempty"`
	Cells        []DeltaCellDoc `json:"cells"`
}

// MutateCorpusResponse reports an applied mutation: the corpus's new
// generation (every cached result of the previous generation is dead) and
// the post-mutation session info.
type MutateCorpusResponse struct {
	Corpus    string     `json:"corpus"`
	Version   int        `json:"version"` // new generation after the mutation
	Applied   int        `json:"applied"` // cells in the request (last-wins per coordinate)
	ElapsedMS float64    `json:"elapsed_ms"`
	Info      CorpusInfo `json:"info"`
}

// CorpusInfo describes one live session.
type CorpusInfo struct {
	ID        string     `json:"id"`
	Version   int        `json:"version"`          // bumps on re-upload of the same ID
	Tenant    string     `json:"tenant,omitempty"` // owning tenant ("" = public)
	Consumers int        `json:"consumers"`
	Items     int        `json:"items"`
	Entries   int        `json:"entries"`
	Stripes   int        `json:"stripes"`
	TotalWTP  float64    `json:"total_wtp"`
	Options   OptionsDoc `json:"options"`
	CreatedAt time.Time  `json:"created_at"`
}

// ListCorporaResponse is the GET /v1/corpora payload.
type ListCorporaResponse struct {
	Corpora []CorpusInfo `json:"corpora"`
}

// SolveRequest runs a configuration algorithm on a session.
type SolveRequest struct {
	Algorithm string `json:"algorithm"` // "" selects "matching", the paper's recommendation
}

// OfferDoc is one priced offer of a configuration.
type OfferDoc struct {
	Items   []int   `json:"items"`
	Price   float64 `json:"price"`
	Revenue float64 `json:"revenue"`
}

// ConfigDoc is the JSON form of a bundling.Configuration.
type ConfigDoc struct {
	Strategy   string     `json:"strategy"`
	Revenue    float64    `json:"revenue"`
	Profit     float64    `json:"profit"`
	Surplus    float64    `json:"surplus"`
	Utility    float64    `json:"utility"`
	Iterations int        `json:"iterations"`
	Bundles    []OfferDoc `json:"bundles"`
	Components []OfferDoc `json:"components,omitempty"`
}

// configDoc converts a configuration to its wire form.
func configDoc(cfg *bundling.Configuration) ConfigDoc {
	d := ConfigDoc{
		Revenue:    cfg.Revenue,
		Profit:     cfg.Profit,
		Surplus:    cfg.Surplus,
		Utility:    cfg.Utility,
		Iterations: cfg.Iterations,
	}
	if cfg.Strategy == bundling.Mixed {
		d.Strategy = "mixed"
	} else {
		d.Strategy = "pure"
	}
	offers := func(bs []bundling.Bundle) []OfferDoc {
		out := make([]OfferDoc, len(bs))
		for i, b := range bs {
			out[i] = OfferDoc{Items: b.Items, Price: b.Price, Revenue: b.Revenue}
		}
		return out
	}
	d.Bundles = offers(cfg.Bundles)
	if len(cfg.Components) > 0 {
		d.Components = offers(cfg.Components)
	}
	return d
}

// SolveResponse is the result of a solve request.
type SolveResponse struct {
	Corpus    string    `json:"corpus"`
	Version   int       `json:"version"`
	Algorithm string    `json:"algorithm"`
	Cached    bool      `json:"cached"` // served from the result cache
	ElapsedMS float64   `json:"elapsed_ms"`
	Config    ConfigDoc `json:"config"`
}

// EvaluateRequest prices a caller-proposed lineup on a session.
type EvaluateRequest struct {
	Offers [][]int `json:"offers"`
}

// EvaluateResponse is the result of an evaluate request. Cached marks a
// result-cache hit.
type EvaluateResponse struct {
	Corpus    string    `json:"corpus"`
	Version   int       `json:"version"`
	Cached    bool      `json:"cached"`
	ElapsedMS float64   `json:"elapsed_ms"`
	Config    ConfigDoc `json:"config"`
}

// WorkerStatusDoc is one fleet worker's circuit-breaker view on /healthz:
// State is "closed" (healthy), "open" (failing; calls skip straight to the
// replica or local fallback until RetryInMs elapses) or "half-open" (a
// recovery probe is due or in flight).
type WorkerStatusDoc struct {
	Addr        string  `json:"addr"`
	State       string  `json:"state"`
	FailureRate float64 `json:"failure_rate"`
	Trips       int64   `json:"trips"`
	RetryInMs   int64   `json:"retry_in_ms,omitempty"`
}

// HealthResponse is the GET /healthz payload. Status is "ok" (200) or
// "degraded" (503, Detail naming the unreachable dependency). Workers
// lists per-worker circuit-breaker state when the daemon fronts a fleet.
// Sessions counts resident in-memory sessions; Corpora counts every live
// corpus, including persisted ones whose sessions were LRU-evicted. GoVersion,
// BuildVersion and Revision identify the binary (runtime/debug build
// info; version and revision are omitted when the build is unstamped).
type HealthResponse struct {
	Status        string            `json:"status"`
	Sessions      int               `json:"sessions"`
	Corpora       int               `json:"corpora"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	GoVersion     string            `json:"go_version,omitempty"`
	BuildVersion  string            `json:"build_version,omitempty"`
	Revision      string            `json:"revision,omitempty"`
	Detail        string            `json:"detail,omitempty"`
	Workers       []WorkerStatusDoc `json:"workers,omitempty"`
}

// ErrorResponse carries any non-2xx outcome. RequestID echoes the response's
// X-Request-Id header so client-side reports can be matched to server logs.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// UsageRow is one metered key's workload: lifetime totals (requests,
// errors, cache hits, bytes in/out, wall seconds) plus the sliding-window
// request count and its derived per-second rate. The key "other" aggregates
// every identifier past the accountant's top-K bound; the key "anonymous"
// is unauthenticated traffic on an open server.
type UsageRow = usage.Row

// UsageResponse is the GET /v1/usage payload. Scope is "admin" (the full
// per-tenant breakdown; served when the daemon runs open) or "tenant" (the
// authenticated caller's own slice: its tenant row plus the corpora it may
// see). WindowSeconds is the sliding window behind every row's
// window_requests/rate_per_sec.
type UsageResponse struct {
	Scope         string     `json:"scope"`
	Tenant        string     `json:"tenant,omitempty"`
	WindowSeconds float64    `json:"window_seconds"`
	Tenants       []UsageRow `json:"tenants"`
	Corpora       []UsageRow `json:"corpora"`
}

// WorkerLoadDoc is the coordinator's locally observed load on one worker:
// RPC volume and outcome mix across every session, a latency EWMA over the
// worker's successful calls, and — for HTTP workers — wire bytes, with the
// binary span-feed share.
type WorkerLoadDoc struct {
	RPCs          int64            `json:"rpcs"`
	Errors        int64            `json:"errors"`
	BreakerSkips  int64            `json:"breaker_skips"`
	LatencyEWMAMs float64          `json:"latency_ewma_ms"`
	Ops           map[string]int64 `json:"ops,omitempty"`
	BytesOut      int64            `json:"bytes_out,omitempty"`
	BytesIn       int64            `json:"bytes_in,omitempty"`
	FeedBytesBin  int64            `json:"feed_bytes_binary,omitempty"`
}

// FleetSpanDoc is one stripe span resident on a worker, as the worker's
// health probe reports it, with the worker-side request count that marks
// hot spans.
type FleetSpanDoc struct {
	Corpus      string `json:"corpus"`
	Version     uint64 `json:"version"`
	StartStripe int    `json:"start_stripe"`
	EndStripe   int    `json:"end_stripe"`
	Entries     int    `json:"entries"`
	Requests    int64  `json:"requests"`
}

// FleetWorkerDoc joins three views of one worker: the live probe result
// (Reachable, Status, uptime, per-op totals, resident spans — absent when
// the probe failed), the coordinator's breaker state, and the coordinator's
// observed load.
type FleetWorkerDoc struct {
	Addr            string           `json:"addr"`
	Reachable       bool             `json:"reachable"`
	Error           string           `json:"error,omitempty"`
	Status          string           `json:"status,omitempty"`
	UptimeSeconds   float64          `json:"uptime_seconds,omitempty"`
	StaleRejections int64            `json:"stale_rejections,omitempty"`
	Ops             map[string]int64 `json:"ops,omitempty"`
	Spans           []FleetSpanDoc   `json:"spans"`
	Breaker         *WorkerStatusDoc `json:"breaker,omitempty"`
	Load            *WorkerLoadDoc   `json:"load,omitempty"`
}

// FleetResponse is the GET /debug/fleet payload: every worker probed
// concurrently and joined with coordinator-side state — one request
// replacing a scrape of N daemons. ProbeMS is the wall time of the slowest
// probe (the fan-out runs them in parallel). Scope mirrors UsageResponse:
// "admin" on an open daemon, "tenant" under auth — then Tenant names the
// caller and each worker's span list is filtered to the corpora it may see.
type FleetResponse struct {
	Scope     string           `json:"scope,omitempty"`
	Tenant    string           `json:"tenant,omitempty"`
	Workers   []FleetWorkerDoc `json:"workers"`
	Reachable int              `json:"reachable"`
	ProbeMS   float64          `json:"probe_ms"`
}
