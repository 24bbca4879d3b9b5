package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bundling/internal/codec"
	"bundling/internal/obs"
	"bundling/internal/pricing"
	"bundling/internal/server"
	"bundling/internal/usage"
	"bundling/internal/wtp"
)

// WorkerConfig tunes a Worker. The zero value serves with defaults.
type WorkerConfig struct {
	// MaxSpans bounds the spans held concurrently (one per corpus key);
	// assigning beyond it evicts the least-recently-used span (0 = 64).
	MaxSpans int
	// MaxAssignBytes bounds a span upload body (0 = 256 MiB).
	MaxAssignBytes int64
	// MaxRequestBytes bounds the other request bodies (0 = 32 MiB; unions
	// ship cached consumer vectors).
	MaxRequestBytes int64
	// TraceRing bounds the ring of recent RPC trace records served at
	// /debug/traces — one single-span trace per coordinator-traced RPC,
	// recorded under the coordinator's X-Trace-Id so the two sides can be
	// joined (0 = 128, negative disables).
	TraceRing int
	// Pprof mounts net/http/pprof under /debug/pprof (-pprof).
	Pprof bool
	// UsageMetrics labels the per-span request gauges on /metrics with
	// their corpus keys (-usage-metrics). Off by default: the worker's
	// /metrics is open and corpus IDs are tenant data, so the default
	// exposition carries only unlabeled aggregates.
	UsageMetrics bool
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.MaxSpans <= 0 {
		c.MaxSpans = 64
	}
	if c.MaxAssignBytes == 0 {
		c.MaxAssignBytes = 256 << 20
	}
	if c.MaxRequestBytes == 0 {
		c.MaxRequestBytes = 32 << 20
	}
	return c
}

// Worker holds the stripe spans assigned to this node — one per corpus key,
// LRU-bounded — and serves the per-span reductions of the distributed
// solving protocol. All operations are safe for concurrent use: spans are
// immutable once built, and the registry is mutex-guarded. The same Worker
// value backs both the in-process transport (direct method calls) and the
// bundleworker daemon's HTTP handler.
type Worker struct {
	cfg    WorkerConfig
	met    *server.Metrics
	traces *obs.Ring // nil when tracing is disabled

	mu    sync.RWMutex
	spans map[string]*workerSpan
	seq   atomic.Int64 // LRU clock
	stale atomic.Int64 // version-mismatch rejections (each one triggers a re-feed)

	mux *http.ServeMux
}

// workerSpan is one assigned span plus its LRU recency and served-request
// count (the per-span load signal health reports).
type workerSpan struct {
	corpus  string
	store   *wtp.SpanStore
	lastUse atomic.Int64
	hits    atomic.Int64
}

// NewWorker returns an empty worker.
func NewWorker(cfg WorkerConfig) *Worker {
	wk := &Worker{
		cfg:   cfg.withDefaults(),
		met:   server.NewMetrics("bundleworker"),
		spans: make(map[string]*workerSpan),
	}
	if wk.cfg.TraceRing >= 0 {
		wk.traces = obs.NewRing(wk.cfg.TraceRing)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/spans/{corpus}", wk.handleAssign)
	mux.HandleFunc("POST /v1/spans/{corpus}/delta", wk.handleDelta)
	mux.HandleFunc("DELETE /v1/spans/{corpus}", wk.handleDrop)
	mux.HandleFunc("POST /v1/spans/{corpus}/vector", serveQuery(wk, "vector", wk.Vector))
	mux.HandleFunc("POST /v1/spans/{corpus}/union", serveQuery(wk, "union", wk.Union))
	mux.HandleFunc("POST /v1/spans/{corpus}/stats", serveQuery(wk, "stats", wk.Stats))
	mux.HandleFunc("POST /v1/spans/{corpus}/hist", serveQuery(wk, "hist", wk.Hist))
	mux.HandleFunc("GET /healthz", wk.handleHealth)
	mux.HandleFunc("GET /metrics", wk.handleMetrics)
	mux.HandleFunc("GET /debug/traces", wk.handleTraces)
	if wk.cfg.Pprof {
		server.RegisterPprof(mux)
	}
	wk.mux = mux
	return wk
}

// Traces returns up to limit recent RPC trace records, newest first
// (limit <= 0 = all retained) — what /debug/traces serves.
func (wk *Worker) Traces(limit int) []obs.TraceDoc { return wk.traces.Snapshot(limit) }

// recordRemote records the worker's side of one coordinator RPC as a
// single-span trace under the coordinator's trace ID, so a worker's
// /debug/traces can be joined with the coordinator's trace by ID. Untraced
// requests (no X-Trace-Id) record nothing.
func (wk *Worker) recordRemote(r *http.Request, op, corpus string, start time.Time, err error) {
	if wk.traces == nil {
		return
	}
	traceID, parent := obs.Extract(r.Header)
	if traceID == "" {
		return
	}
	tags := []obs.Tag{{Key: "corpus", Value: corpus}}
	if err != nil {
		tags = append(tags, obs.Tag{Key: "outcome", Value: "error"})
	}
	wk.traces.Push(obs.RemoteSpan(traceID, parent, "worker."+op, start, time.Since(start), tags...))
}

// Handler returns the worker's HTTP handler (the bundleworker daemon's
// serving surface).
func (wk *Worker) Handler() http.Handler { return wk.mux }

// Assign registers (or replaces) the span for a corpus key, evicting the
// least-recently-used span when the bound is exceeded.
func (wk *Worker) Assign(corpus string, doc *wtp.SpanDoc) error {
	if corpus == "" {
		return fmt.Errorf("cluster: empty corpus key")
	}
	store, err := doc.Store()
	if err != nil {
		return err
	}
	wk.register(corpus, store)
	return nil
}

// register installs a span store under a corpus key, evicting the
// least-recently-used span when the bound is exceeded.
func (wk *Worker) register(corpus string, store *wtp.SpanStore) {
	sp := &workerSpan{corpus: corpus, store: store}
	sp.lastUse.Store(wk.seq.Add(1))
	wk.mu.Lock()
	defer wk.mu.Unlock()
	wk.spans[corpus] = sp
	for len(wk.spans) > wk.cfg.MaxSpans {
		var victim string
		oldest := int64(1<<63 - 1)
		for key, s := range wk.spans {
			if u := s.lastUse.Load(); u < oldest {
				oldest, victim = u, key
			}
		}
		delete(wk.spans, victim)
	}
}

// Delta rebases a resident span under a new corpus key: the base span must
// be registered under req.BaseCorpus at snapshot req.FromVersion (missing or
// stale answers ErrSpan so the coordinator falls back to a full feed), the
// span-scoped cells are applied to a patched copy sharing every untouched
// stripe, and the copy registers under corpus stamped req.ToVersion. The
// base span stays resident and untouched, so the previous session keeps
// serving while it drains.
func (wk *Worker) Delta(corpus string, req DeltaRequest) error {
	if corpus == "" {
		return fmt.Errorf("cluster: empty corpus key")
	}
	base, err := wk.span(req.BaseCorpus, req.FromVersion)
	if err != nil {
		return err
	}
	store, err := base.ApplyDelta(req.Cells, req.ToVersion)
	if err != nil {
		return err
	}
	wk.register(corpus, store)
	return nil
}

// Drop removes a corpus's span, reporting whether it existed.
func (wk *Worker) Drop(corpus string) bool {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	_, ok := wk.spans[corpus]
	delete(wk.spans, corpus)
	return ok
}

// span resolves a corpus's store, checking the caller's snapshot version.
// Both a missing span and a version mismatch answer ErrSpan: the coordinator
// repairs either by re-feeding the current span and retrying, so a stale
// worker can never contribute stale data.
func (wk *Worker) span(corpus string, version uint64) (*wtp.SpanStore, error) {
	wk.mu.RLock()
	sp, ok := wk.spans[corpus]
	wk.mu.RUnlock()
	if !ok {
		wk.stale.Add(1)
		return nil, fmt.Errorf("%w: no span for corpus %q", ErrSpan, corpus)
	}
	if v := sp.store.Version(); v != version {
		wk.stale.Add(1)
		return nil, fmt.Errorf("%w: corpus %q at version %d, caller wants %d", ErrSpan, corpus, v, version)
	}
	sp.lastUse.Store(wk.seq.Add(1))
	sp.hits.Add(1)
	return sp.store, nil
}

// Vector computes the span's share of each bundle's interested-consumer
// vector.
func (wk *Worker) Vector(corpus string, req VectorRequest) (VectorResponse, error) {
	start := time.Now()
	sp, err := wk.querySpan(corpus, req.Version, req.Bundles)
	if err != nil {
		return VectorResponse{}, err
	}
	resp := spanVectors(sp, req.Bundles)
	wk.met.Observe("vector", time.Since(start))
	return resp, nil
}

// Union merges the span-restricted slices of two cached consumer vectors.
// No coordinator sends it: solves form every union in process.
func (wk *Worker) Union(corpus string, req UnionRequest) (VectorResponse, error) {
	start := time.Now()
	if len(req.AIDs) != len(req.AVals) || len(req.BIDs) != len(req.BVals) {
		return VectorResponse{}, fmt.Errorf("cluster: union of %d ids with %d values and %d ids with %d values", len(req.AIDs), len(req.AVals), len(req.BIDs), len(req.BVals))
	}
	if _, err := wk.span(corpus, req.Version); err != nil {
		return VectorResponse{}, err
	}
	ids, vals := wtp.UnionVectors(req.AIDs, req.AVals, req.SA, req.BIDs, req.BVals, req.SB, nil, nil)
	wk.met.Observe("union", time.Since(start))
	return VectorResponse{IDs: ids, Vals: vals}, nil
}

// Stats computes the span's pricing pre-aggregate for each bundle.
func (wk *Worker) Stats(corpus string, req StatsRequest) (StatsResponse, error) {
	start := time.Now()
	sp, err := wk.querySpan(corpus, req.Version, req.Bundles)
	if err != nil {
		return StatsResponse{}, err
	}
	resp := spanStats(sp, req.Bundles)
	wk.met.Observe("stats", time.Since(start))
	return resp, nil
}

// Hist computes the span's pricing-histogram partial for each bundle.
func (wk *Worker) Hist(corpus string, req HistRequest) (HistResponse, error) {
	start := time.Now()
	switch {
	case req.Levels < 1 || req.Levels > pricing.MaxLevels:
		return HistResponse{}, fmt.Errorf("cluster: %d price levels outside [1,%d]", req.Levels, pricing.MaxLevels)
	case !(req.Alpha > 0) || math.IsInf(req.Alpha, 1):
		return HistResponse{}, fmt.Errorf("cluster: α=%g must be finite and > 0", req.Alpha)
	case len(req.MaxW) != len(req.Bundles):
		return HistResponse{}, fmt.Errorf("cluster: %d maxima for %d bundles", len(req.MaxW), len(req.Bundles))
	case len(req.Bundles) > pricing.MaxHistogramCells/(req.Levels+1):
		return HistResponse{}, fmt.Errorf("cluster: %d bundles of %d levels exceed %d histogram cells", len(req.Bundles), req.Levels+1, pricing.MaxHistogramCells)
	}
	sp, err := wk.querySpan(corpus, req.Version, req.Bundles)
	if err != nil {
		return HistResponse{}, err
	}
	resp := spanHist(sp, req.Bundles, req.MaxW, req.Alpha, req.Levels)
	wk.met.Observe("hist", time.Since(start))
	return resp, nil
}

// querySpan resolves a query's span and checks that every bundle's item ids
// index the corpus, before any kernel reads the span's postings.
func (wk *Worker) querySpan(corpus string, version uint64, bundles []Bundle) (*wtp.SpanStore, error) {
	sp, err := wk.span(corpus, version)
	if err != nil {
		return nil, err
	}
	n := sp.Items()
	for k, b := range bundles {
		for _, it := range b.Items {
			if it < 0 || it >= n {
				return nil, fmt.Errorf("cluster: bundle %d: item %d outside [0,%d)", k, it, n)
			}
		}
	}
	return sp, nil
}

// Health reports the worker's assigned spans, sorted by corpus key.
func (wk *Worker) Health() WorkerHealth {
	wk.mu.RLock()
	defer wk.mu.RUnlock()
	h := WorkerHealth{
		Status:          "ok",
		UptimeSeconds:   wk.met.Uptime().Seconds(),
		Ops:             wk.met.Counts(),
		StaleRejections: wk.stale.Load(),
	}
	for _, sp := range wk.spans {
		s0, s1 := sp.store.StripeRange()
		lo, hi := sp.store.Bounds()
		h.Spans = append(h.Spans, SpanInfo{
			Corpus:      sp.corpus,
			Version:     sp.store.Version(),
			StartStripe: s0,
			EndStripe:   s1,
			LoConsumer:  lo,
			HiConsumer:  hi,
			Items:       sp.store.Items(),
			Entries:     sp.store.Entries(),
			Requests:    sp.hits.Load(),
		})
	}
	sort.Slice(h.Spans, func(i, j int) bool { return h.Spans[i].Corpus < h.Spans[j].Corpus })
	return h
}

// spanVectors is the vector kernel, shared by the worker and the
// coordinator's local fallback so both sides compute identical vectors: the
// bundles' span vectors concatenated, with each bundle's end offset.
func spanVectors(sp *wtp.SpanStore, bundles []Bundle) VectorResponse {
	resp := VectorResponse{Ends: make([]int, len(bundles))}
	var ids []int
	var vals []float64
	for k, b := range bundles {
		ids, vals = sp.BundleVector(b.Items, b.Theta, ids, vals)
		resp.IDs = append(resp.IDs, ids...)
		resp.Vals = append(resp.Vals, vals...)
		resp.Ends[k] = len(resp.IDs)
	}
	return resp
}

// spanStats is the stats kernel, shared like spanVectors: each bundle's
// maximum WTP in the span.
func spanStats(sp *wtp.SpanStore, bundles []Bundle) StatsResponse {
	resp := StatsResponse{Max: make([]float64, len(bundles))}
	var ids []int
	var vals []float64
	for k, b := range bundles {
		ids, vals = sp.BundleVector(b.Items, b.Theta, ids, vals)
		for _, v := range vals {
			if v > resp.Max[k] {
				resp.Max[k] = v
			}
		}
	}
	return resp
}

// spanHist is the histogram kernel, shared like spanVectors: each bundle's
// histogram against its maximum, bundle-major.
func spanHist(sp *wtp.SpanStore, bundles []Bundle, maxW []float64, alpha float64, levels int) HistResponse {
	L := levels + 1
	resp := HistResponse{
		Counts: make([]float64, len(bundles)*L),
		Sums:   make([]float64, len(bundles)*L),
	}
	var ids []int
	var vals []float64
	for k, b := range bundles {
		ids, vals = sp.BundleVector(b.Items, b.Theta, ids, vals)
		pricing.Histogram(vals, alpha, maxW[k], levels, resp.Counts[k*L:(k+1)*L], resp.Sums[k*L:(k+1)*L])
	}
	return resp
}

// --- HTTP surface -----------------------------------------------------------

// writeJSON emits a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// failErr maps an operation error to its HTTP form: ErrSpan → 409 (the
// coordinator's cue to re-feed), anything else → 400.
func (wk *Worker) failErr(w http.ResponseWriter, err error) {
	wk.met.CountError()
	status := http.StatusBadRequest
	if errors.Is(err, ErrSpan) {
		status = http.StatusConflict
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// decodeBody strictly decodes a bounded JSON request body.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// readCodec reads a bounded binary codec request body. A body in any other
// encoding is answered 415 and nil is returned.
func (wk *Worker) readCodec(w http.ResponseWriter, r *http.Request, limit int64) []byte {
	if !strings.HasPrefix(r.Header.Get("Content-Type"), codec.ContentType) {
		wk.met.CountError()
		writeJSON(w, http.StatusUnsupportedMediaType, ErrorResponse{Error: "want Content-Type " + codec.ContentType})
		return nil
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		wk.failErr(w, fmt.Errorf("read body: %w", err))
		return nil
	}
	return body
}

// handleAssign accepts a span feed as a binary codec assign envelope.
func (wk *Worker) handleAssign(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body := wk.readCodec(w, r, wk.cfg.MaxAssignBytes)
	if body == nil {
		return
	}
	_, span, err := codec.DecodeAssign(body)
	if err != nil {
		wk.failErr(w, fmt.Errorf("decode span: %w", err))
		return
	}
	if span == nil {
		wk.failErr(w, fmt.Errorf("cluster: assign request carries no span"))
		return
	}
	if err := wk.Assign(r.PathValue("corpus"), span); err != nil {
		wk.recordRemote(r, "assign", r.PathValue("corpus"), start, err)
		wk.failErr(w, err)
		return
	}
	wk.met.Observe("assign", time.Since(start))
	wk.recordRemote(r, "assign", r.PathValue("corpus"), start, nil)
	// No payload: the coordinator ignores it, and a full health report per
	// feed would just be discarded bytes (spans are visible on /healthz).
	w.WriteHeader(http.StatusNoContent)
}

// handleDelta accepts a span-delta feed as a binary codec delta envelope;
// the envelope's interned ID carries the base corpus key.
func (wk *Worker) handleDelta(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body := wk.readCodec(w, r, wk.cfg.MaxRequestBytes)
	if body == nil {
		return
	}
	d, err := codec.DecodeDelta(body)
	if err != nil {
		wk.failErr(w, fmt.Errorf("decode delta: %w", err))
		return
	}
	err = wk.Delta(r.PathValue("corpus"), DeltaRequest{BaseCorpus: d.ID, FromVersion: d.FromVersion, ToVersion: d.ToVersion, Cells: d.Cells()})
	wk.recordRemote(r, "delta", r.PathValue("corpus"), start, err)
	if err != nil {
		wk.failErr(w, err)
		return
	}
	wk.met.Observe("delta", time.Since(start))
	w.WriteHeader(http.StatusNoContent)
}

func (wk *Worker) handleDrop(w http.ResponseWriter, r *http.Request) {
	// Idempotent: dropping an absent span (double release, LRU already
	// evicted it) is success, not an error.
	wk.Drop(r.PathValue("corpus"))
	w.WriteHeader(http.StatusNoContent)
}

// serveQuery is the HTTP form of one per-span reduction: strictly decode the
// JSON request, run it against the path's corpus, record the worker side of
// the trace, and answer the JSON result.
func serveQuery[Req, Resp any](wk *Worker, op string, run func(corpus string, req Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var req Req
		if err := decodeBody(w, r, &req, wk.cfg.MaxRequestBytes); err != nil {
			wk.failErr(w, fmt.Errorf("decode request: %w", err))
			return
		}
		resp, err := run(r.PathValue("corpus"), req)
		wk.recordRemote(r, op, r.PathValue("corpus"), start, err)
		if err != nil {
			wk.failErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func (wk *Worker) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, wk.Health())
}

// handleTraces serves the worker's recent RPC trace records, newest first
// (?limit=N bounds the reply). Workers serve a trusted coordinator network
// and have no auth layer, so the route is open like the rest of their API.
func (wk *Worker) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			wk.met.CountError()
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("limit: want a positive integer, got %q", q)})
			return
		}
		limit = n
	}
	docs := wk.traces.Snapshot(limit)
	if docs == nil {
		docs = []obs.TraceDoc{}
	}
	writeJSON(w, http.StatusOK, struct {
		Traces []obs.TraceDoc `json:"traces"`
	}{Traces: docs})
}

func (wk *Worker) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	wk.mu.RLock()
	gauges := []server.GaugeRow{
		{Name: "bundleworker_spans", Help: "Stripe spans currently assigned.", Value: float64(len(wk.spans))},
	}
	// Per-span request gauges are opt-in (UsageMetrics): /metrics serves
	// unauthenticated and the corpus keys are tenant data. When enabled
	// the family stays bounded by MaxSpans (it tracks live spans only) and
	// the user-supplied corpus IDs are sanitized before labeling.
	if wk.cfg.UsageMetrics {
		keys := make([]string, 0, len(wk.spans))
		for key := range wk.spans {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			gauges = append(gauges, server.GaugeRow{
				Name:   "bundleworker_span_requests",
				Help:   "Reduction RPCs served per resident span since assignment.",
				Labels: `corpus="` + usage.SanitizeLabel(key) + `"`,
				Value:  float64(wk.spans[key].hits.Load()),
			})
		}
	}
	wk.mu.RUnlock()
	wk.met.Render(w,
		gauges,
		[]server.CounterRow{
			{Name: "bundleworker_stale_rejections_total", Help: "Requests rejected for a missing or stale span (each triggers a coordinator re-feed).", Value: wk.stale.Load()},
		})
}
