// Package server implements bundled, the bundle-pricing serving subsystem:
// a registry that is the daemon's one corpus catalog — every live corpus by
// ID, holding a Solver session for the LRU-bounded set of resident ones —
// an LRU-bounded result cache keyed by exact corpus snapshot, admission
// control over engine runs (each solve or evaluate runs on its own
// request's goroutine and context), a durable corpus Store that persists
// every upload and PATCH and refills the catalog after a restart, a
// tenancy layer (API-key auth, per-tenant ownership and quotas), and the
// JSON HTTP API the cmd/bundled daemon and the bundling/client package
// speak. Sessions run on any engine implementing Solver — the in-process
// bundling.Solver or the internal/cluster coordinator that shards stripes
// across a worker fleet — so persistence and tenancy apply unchanged to
// single-machine and clustered serving.
//
//	POST   /v1/corpora               upload a corpus, create/replace its session
//	GET    /v1/corpora               list live corpora (the caller's own)
//	GET    /v1/corpora/{id}          one corpus's info
//	DELETE /v1/corpora/{id}          delete a corpus
//	POST   /v1/corpora/{id}/solve    run a configuration algorithm
//	POST   /v1/corpora/{id}/evaluate price a caller-proposed lineup
//	PATCH  /v1/corpora/{id}          apply a delta to a corpus in place
//	GET    /healthz                  liveness + session and corpus counts
//	GET    /metrics                  Prometheus text metrics
//
// With an Auth configured, /v1 requests must carry a tenant's API key
// (401 otherwise), a tenant can only see and operate on its own corpora
// (403 otherwise), and Quotas bound its corpus count, total indexed
// entries and request rate (429 beyond). /healthz and /metrics stay open.
// See docs/API.md for the wire reference and docs/OPERATIONS.md for the
// persistence layout and metrics catalogue.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"bundling"
	"bundling/internal/codec"
	"bundling/internal/obs"
)

// Solver is the session-engine surface the server serves: SolveContext
// runs a configuration algorithm, EvaluateContext prices a what-if lineup,
// Stats describes the indexed corpus (its Version keys the result cache).
// Both solve and evaluate take the request's context — a canceled or
// expired context must abort the run promptly with the context's error, so
// the server can bound execution latency and stop work for disconnected
// clients. The local *bundling.Solver implements it, and so does the
// cluster coordinator, which is how one daemon serves either a single
// machine or a worker fleet transparently.
type Solver interface {
	SolveContext(ctx context.Context, a bundling.Algorithm) (*bundling.Configuration, error)
	EvaluateContext(ctx context.Context, offers [][]int) (*bundling.Configuration, error)
	Stats() bundling.SolverStats
}

// DeltaSolver is the optional incremental-mutation extension of Solver: an
// engine that can derive a new session with a cell delta applied, without
// rebuilding from the full matrix. The cluster coordinator implements it
// (span-scoped delta feeds to the workers); the local *bundling.Solver has
// the same capability through its concrete ApplyDelta and is dispatched
// directly. The receiver must stay intact and serving — in-flight requests
// hold it until the registry swap completes.
type DeltaSolver interface {
	ApplyDeltaSolver(cells []bundling.DeltaCell) (Solver, error)
}

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// MaxSessions bounds the resident sessions, the corpora whose engines
	// are in memory; installing one beyond it evicts the least-recently-used
	// engine (0 = 64). An evicted persisted corpus stays listed and reloads
	// on its next request; a memory-only one is dropped.
	MaxSessions int
	// CacheEntries bounds the result cache (0 = 1024, negative disables).
	CacheEntries int
	// MaxUploadBytes bounds a corpus upload body (0 = 64 MiB).
	MaxUploadBytes int64
	// NewSolver builds the session engine for an uploaded corpus. Nil
	// selects the local in-process solver (bundling.NewSolver); the
	// cmd/bundled -workers flag installs the cluster coordinator here.
	NewSolver func(w *bundling.Matrix, opts bundling.Options) (Solver, error)
	// Ready, if set, gates /healthz on external dependencies: a non-nil
	// error degrades the health response to 503 with the error as detail
	// (e.g. a required cluster worker being unreachable).
	Ready func() error
	// Store, if set, persists every uploaded corpus and lets Restore
	// refill the registry after a restart. Nil keeps sessions in-memory
	// only.
	Store *Store
	// Auth, if enabled, requires a tenant API key on every /v1 request and
	// scopes corpus ownership to the authenticated tenant. Nil serves open.
	Auth *Auth
	// Quotas bounds each tenant's corpora, total entries and request rate.
	// The zero value is unlimited.
	Quotas Quotas
	// MaxConcurrent bounds in-flight solve/evaluate executions — the
	// engine-bound work, not cache hits or metadata requests (0 = 64,
	// negative disables admission control). Excess requests wait in a short
	// bounded queue and are shed with 503 + Retry-After when it overflows
	// or the wait exceeds QueueTimeout, so overload degrades to fast
	// rejections instead of a latency collapse.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot
	// (0 = 2×MaxConcurrent, negative disables queueing: shed immediately
	// when all slots are busy).
	MaxQueue int
	// QueueTimeout caps how long an admitted request waits for a slot
	// before being shed (0 = 2s).
	QueueTimeout time.Duration
	// DefaultTimeout is the server-side execution budget for solve and
	// evaluate when the client does not send X-Deadline-Ms (0 = none). A
	// request whose budget expires gets 504 and its engine run aborts at
	// the next iteration boundary.
	DefaultTimeout time.Duration
	// WorkerStatus, if set, reports the fleet's per-worker circuit-breaker
	// state on /healthz (installed by cmd/bundled in cluster mode).
	WorkerStatus func() []WorkerStatusDoc
	// Fleet, if set, assembles the merged fleet-introspection view served
	// at GET /debug/fleet — concurrent worker probes joined with
	// coordinator-side breaker and load state (installed by cmd/bundled in
	// cluster mode; the route is absent otherwise).
	Fleet func(ctx context.Context) FleetResponse
	// UsageTopK bounds the distinct tenant and corpus keys the workload
	// accountant tracks individually; later keys collapse into the "other"
	// bucket, so user-supplied IDs can never explode /metrics (0 = 32,
	// negative disables accounting and the /v1/usage endpoint).
	UsageTopK int
	// UsageWindow is the sliding window behind the accountant's
	// window_requests/rate_per_sec columns and *_window_rps gauges (0 = 60s).
	UsageWindow time.Duration
	// UsageMetrics additionally exposes the accountant as labeled
	// bundled_tenant_*/bundled_corpus_* series on /metrics. Off by default:
	// /metrics is deliberately unauthenticated, and the label values are
	// tenant data (tenant names, corpus IDs, their traffic shape) — opt in
	// only when the scrape endpoint is private (-usage-metrics). The
	// auth-guarded, tenant-scoped /v1/usage serves the same numbers either
	// way.
	UsageMetrics bool
	// ExtraMetrics, if set, contributes extra rows to /metrics (the daemon
	// installs fleet breaker gauges and coordinator fallback counters here).
	ExtraMetrics func() ([]GaugeRow, []CounterRow)
	// Logger, if set, receives one structured line per completed /v1
	// request, traced or not and recovered panics included (trace ID when
	// traced, request ID, tenant, corpus, algorithm, status, duration),
	// plus the slow-request span dumps. Nil disables request logging;
	// tracing and /debug/traces work either way.
	Logger *slog.Logger
	// SlowRequest, when positive, dumps the full span tree of any traced
	// /v1 request slower than this budget to the Logger at warn level.
	SlowRequest time.Duration
	// TraceRing bounds the in-memory ring of recent traces served at
	// /debug/traces (0 = 128, negative disables request tracing entirely —
	// X-Request-Id is still stamped and requests are still logged, metered
	// and billed, but no spans are recorded).
	TraceRing int
	// Pprof mounts net/http/pprof under /debug/pprof when set — auth-exempt
	// like /metrics, so gate it at the operator's discretion (-pprof).
	Pprof bool
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.NewSolver == nil {
		c.NewSolver = func(w *bundling.Matrix, opts bundling.Options) (Solver, error) {
			return bundling.NewSolver(w, opts)
		}
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.MaxUploadBytes == 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 64
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 2 * time.Second
	}
	return c
}

// Server is the bundle-pricing service. One Server handles any number of
// concurrent requests; all state is internally synchronized.
type Server struct {
	cfg    Config
	reg    *registry
	cache  *resultCache
	met    *metrics
	rates  *rateGate
	lim    *limiter
	mux    *http.ServeMux
	traces *obs.Ring // nil when tracing is disabled
	use    *usageSet // nil when workload accounting is disabled
}

// New assembles a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	cfg.Quotas = cfg.Quotas.withDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   newRegistry(cfg.MaxSessions),
		cache: newResultCache(cfg.CacheEntries),
		met:   newMetrics(),
		rates: newRateGate(cfg.Quotas),
		lim:   newLimiter(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueTimeout),
	}
	if cfg.TraceRing >= 0 {
		s.traces = obs.NewRing(cfg.TraceRing)
	}
	s.use = newUsageSet(cfg.UsageTopK, cfg.UsageWindow)
	s.reg.authOn = cfg.Auth.Enabled()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/corpora", s.handleCreate)
	mux.HandleFunc("GET /v1/corpora", s.handleList)
	mux.HandleFunc("GET /v1/corpora/{id}", s.handleInfo)
	mux.HandleFunc("PATCH /v1/corpora/{id}", s.handlePatch)
	mux.HandleFunc("DELETE /v1/corpora/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/corpora/{id}/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/corpora/{id}/evaluate", s.handleEvaluate)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.use != nil {
		mux.HandleFunc("GET /v1/usage", s.handleUsage)
	}
	if s.traces != nil {
		mux.HandleFunc("GET /debug/traces", s.handleTraces)
	}
	if cfg.Fleet != nil {
		mux.HandleFunc("GET /debug/fleet", s.handleFleet)
	}
	if cfg.Pprof {
		RegisterPprof(mux)
	}
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler: the API mux behind the
// tenancy guard (authentication and the request-rate quota), behind
// observe (the request record, request ID, tracing, panic recovery and
// every per-request sink).
func (s *Server) Handler() http.Handler {
	return s.observe(s.guard(s.mux))
}

// Restore fills the registry from the configured Store's manifest in one
// pass: an engine-less entry for every live corpus, and every known ID's
// generation counter (deleted IDs included, so post-restart uploads
// continue their sequences). No record file is opened and no index is
// built, so restart time is O(manifest) instead of O(corpora × index
// build). Listings and /healthz serve immediately, and each corpus
// re-indexes on its first request (lookupSession), exactly as an
// LRU-evicted corpus does. A cluster-backed daemon therefore feeds worker
// spans on first touch — each lazily restored session draws a new span
// nonce, so stale pre-restart spans on the fleet can never satisfy its
// version checks. A corpus whose manifest entry does not parse is skipped
// and reported in the error; the rest are restored.
func (s *Server) Restore() (int, error) {
	if s.cfg.Store == nil {
		return 0, nil
	}
	live, gens := s.cfg.Store.Catalog()
	stubs := make([]*session, 0, len(live))
	var errs []error
	for _, info := range live {
		stub, err := stubOf(info)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		stubs = append(stubs, stub)
	}
	s.reg.restore(stubs, gens)
	return len(stubs), errors.Join(errs...)
}

// stubOf builds the engine-less entry of a persisted corpus from its
// manifest listing.
func stubOf(info CorpusInfo) (*session, error) {
	opts, err := info.Options.options()
	if err != nil {
		return nil, fmt.Errorf("corpus %q: options: %w", info.ID, err)
	}
	return &session{
		id:        info.ID,
		version:   info.Version,
		tenant:    info.Tenant,
		opts:      opts,
		stats:     bundling.SolverStats{Consumers: info.Consumers, Items: info.Items, Entries: info.Entries},
		createdAt: info.CreatedAt,
		persisted: true,
	}, nil
}

// Close releases every session (including any remote state a cluster
// engine holds on its workers). In-flight requests holding a session keep
// working (sessions are immutable); new requests see an empty registry.
// The HTTP listener's drain is the caller's job (http.Server.Shutdown).
func (s *Server) Close() {
	for _, sess := range s.reg.clear() {
		releaseSession(sess)
	}
}

// Sessions returns the resident session count (used by health and tests).
func (s *Server) Sessions() int { return s.reg.len() }

// writeJSON emits a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// fail emits an error response and counts it. observe stamps the
// request ID on the response headers before the handler runs, so the error
// body can echo it for log correlation without threading the request here.
func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.met.CountError()
	writeJSON(w, status, ErrorResponse{
		Error:     fmt.Sprintf(format, args...),
		RequestID: w.Header().Get(obs.HeaderRequest),
	})
}

// maxRequestBytes bounds non-upload request bodies (solve/evaluate); only
// corpus uploads get the much larger configurable cap.
const maxRequestBytes = 1 << 20

// decodeBody strictly decodes a JSON request body into v, bounded so an
// oversized body cannot balloon the daemon's memory.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeBodyLimit(w, r, v, maxRequestBytes)
}

// decodeBodyLimit is decodeBody with an explicit size cap (corpus uploads
// pass the configured upload bound).
func decodeBodyLimit(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// handleCreate ingests a corpus and registers its session. Re-uploading an
// existing ID atomically replaces the session and bumps its version. The
// body is either the JSON CreateCorpusRequest or, with Content-Type
// codec.ContentType, a binary codec record envelope (ID, options blob and
// matrix columns — the same envelope the store persists).
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	rec := recordOf(w)
	rec.op = "upload"
	var req CreateCorpusRequest
	if strings.HasPrefix(r.Header.Get("Content-Type"), codec.ContentType) {
		if !s.decodeCreateBinary(w, r, &req) {
			return
		}
	} else if err := decodeBodyLimit(w, r, &req, s.cfg.MaxUploadBytes); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", s.cfg.MaxUploadBytes)
			return
		}
		s.fail(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	opts, err := req.Options.options()
	if err != nil {
		s.fail(w, http.StatusBadRequest, "options: %v", err)
		return
	}
	var matrix *bundling.Matrix
	switch req.Format {
	case "", "json":
		if req.Matrix == nil {
			s.fail(w, http.StatusBadRequest, "json corpus needs a matrix document")
			return
		}
		matrix, err = req.Matrix.Matrix()
	case "csv":
		if req.CSV == "" {
			s.fail(w, http.StatusBadRequest, "csv corpus needs a csv payload")
			return
		}
		matrix, err = bundling.DecodeMatrix(strings.NewReader(req.CSV), "csv", req.Lambda)
	default:
		s.fail(w, http.StatusBadRequest, "unknown corpus format %q (want json or csv)", req.Format)
		return
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, "corpus: %v", err)
		return
	}
	rec.corpus = req.ID
	// An advisory admission pass (ownership, quotas) runs before the
	// expensive engine build so a doomed upload is rejected cheaply; the
	// authoritative checks run atomically with the install inside the
	// registry.
	if err := s.reg.admitCheck(rec.tenant, req.ID, matrix.Entries(), s.cfg.Quotas); err != nil {
		s.failAdmit(w, err)
		return
	}
	_, isp := obs.StartSpan(r.Context(), "index")
	isp.Tag("entries", matrix.Entries())
	sess, err := s.register(req.ID, rec.tenant, matrix, opts, true)
	isp.End()
	if err != nil {
		var qe *quotaError
		var oe *ownerError
		if errors.As(err, &qe) || errors.As(err, &oe) {
			s.failAdmit(w, err)
			return
		}
		s.fail(w, http.StatusBadRequest, "index corpus: %v", err)
		return
	}
	rec.corpus = sess.id // covers server-assigned IDs
	if s.cfg.Store != nil {
		defer close(sess.durable)
		stored := CorpusRecord{
			ID:         sess.id,
			Tenant:     sess.tenant,
			Generation: sess.version,
			CreatedAt:  sess.createdAt,
			Options:    NewOptionsDoc(opts),
			Matrix:     req.Matrix,
			Entries:    sess.stats.Entries, // parsed count, not raw doc length
		}
		if stored.Matrix == nil {
			stored.Matrix = bundling.NewMatrixDoc(matrix) // csv uploads persist in canonical form
		}
		_, psp := obs.StartSpan(r.Context(), "persist")
		perr := s.cfg.Store.Put(stored)
		psp.End()
		if perr != nil {
			// An upload the caller cannot trust to survive a restart must
			// not be accepted: roll the entry back to the generation the
			// disk still guarantees, so a transient store fault never turns
			// a serving corpus into 404.
			s.met.storeErrors.Add(1)
			s.rollback(sess)
			s.fail(w, http.StatusInternalServerError, "persist corpus: %v", perr)
			return
		}
	}
	writeJSON(w, http.StatusCreated, sess.info())
}

// decodeCreateBinary fills req from a binary corpus upload: a codec record
// envelope whose ID, embedded options JSON and matrix columns map onto the
// json-format CreateCorpusRequest fields (Generation, Tenant and CreatedAt
// are server-assigned and ignored). On failure it writes the error response
// and returns false.
func (s *Server) decodeCreateBinary(w http.ResponseWriter, r *http.Request, req *CreateCorpusRequest) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", s.cfg.MaxUploadBytes)
			return false
		}
		s.fail(w, http.StatusBadRequest, "read request: %v", err)
		return false
	}
	cr, err := codec.DecodeRecord(body)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "decode binary upload: %v", err)
		return false
	}
	req.ID = cr.ID
	if len(cr.OptionsJSON) > 0 {
		if err := json.Unmarshal(cr.OptionsJSON, &req.Options); err != nil {
			s.fail(w, http.StatusBadRequest, "binary upload options: %v", err)
			return false
		}
	}
	doc := bundling.MatrixDoc(cr.Matrix)
	req.Matrix = &doc
	return true
}

// failAdmit maps an admission error to its response: a cross-tenant install
// is 403; an exceeded quota is 429 plus the matching rejection counter.
func (s *Server) failAdmit(w http.ResponseWriter, err error) {
	var oe *ownerError
	if errors.As(err, &oe) {
		s.fail(w, http.StatusForbidden, "%v", err)
		return
	}
	var qe *quotaError
	if errors.As(err, &qe) && qe.kind == "entries" {
		s.met.quotaEntries.Add(1)
	} else {
		s.met.quotaCorpora.Add(1)
	}
	s.fail(w, http.StatusTooManyRequests, "%v", err)
}

// rollback undoes a failed persist of sess's generation: the entry goes
// back to the generation the disk still holds, engine-less, or leaves the
// catalog when the disk holds none — what a restart would serve. An entry
// that moved on to a newer generation meanwhile is left alone.
func (s *Server) rollback(sess *session) {
	live, _ := s.cfg.Store.Catalog()
	var disk *session
	if info, ok := live[sess.id]; ok {
		disk, _ = stubOf(info) // an unparsable entry leaves the ID absent, as a restart would
	}
	s.retireSession(s.reg.swapAt(sess.id, sess.version, disk))
}

// register indexes a corpus and installs its session at the ID's next
// generation (an empty ID gets a server-assigned one). An upload runs the
// tenant admission checks atomically with the install and, with a Store
// configured, is a persisted session whose durable channel the caller
// closes once the persist resolves. Preload passes upload=false.
func (s *Server) register(id, tenant string, matrix *bundling.Matrix, opts bundling.Options, upload bool) (*session, error) {
	solver, err := s.cfg.NewSolver(matrix, opts)
	if err != nil {
		return nil, err
	}
	if id == "" {
		id = s.reg.nextID()
	}
	sess := newSession(id, tenant, solver, opts, time.Now().UTC())
	if upload && s.cfg.Store != nil {
		sess.persisted, sess.durable = true, make(chan struct{})
	}
	replaced, evicted, err := s.reg.put(sess, s.cfg.Quotas, upload)
	if err != nil {
		releaseSession(sess) // a cluster engine has already fed its spans
		return nil, err
	}
	s.retireSession(replaced)
	s.releaseEvicted(evicted)
	s.met.uploads.Add(1)
	return sess, nil
}

// releaseEvicted releases the engines the registry's LRU bound evicted.
// Their cached results stay: a lazy reload restores the same snapshot.
func (s *Server) releaseEvicted(evicted []*session) {
	for _, victim := range evicted {
		s.met.evictions.Add(1)
		releaseSession(victim)
	}
}

// newSession assembles a session around an already-built engine and its
// stats snapshot. The caller installs it through one of the registry put
// paths, which assigns the generation.
func newSession(id, tenant string, solver Solver, opts bundling.Options, createdAt time.Time) *session {
	return &session{
		id:        id,
		tenant:    tenant,
		solver:    solver,
		opts:      opts,
		stats:     solver.Stats(),
		createdAt: createdAt,
	}
}

// releaseSession frees a session's external resources once it has left the
// registry. Engines that hold remote state — the cluster coordinator keeps
// stripe spans resident on the worker fleet — implement io.Closer; the
// local solver holds only memory and does not. Safe with requests still in
// flight on the old session: a cluster engine whose spans were dropped
// simply re-feeds or falls back locally, it never returns stale data.
func releaseSession(sess *session) {
	if sess == nil {
		return
	}
	if c, ok := sess.solver.(io.Closer); ok {
		_ = c.Close()
	}
}

// retireSession releases a session that a re-upload or PATCH superseded,
// or a delete (or a persist rollback) removed, and drops its result-cache
// entries: no request can hit them again, and left to age out they would
// crowd live results out of the LRU. An LRU-evicted session is only
// released — a lazy reload restores its snapshot under the same cache keys.
func (s *Server) retireSession(sess *session) {
	if sess == nil {
		return
	}
	s.cache.drop(sess)
	releaseSession(sess)
}

// Preload registers a session programmatically — the daemon's -demo corpus
// and in-process harnesses use it to seed sessions without an HTTP upload.
// Preloaded sessions are public (no owning tenant) and are not persisted:
// the daemon re-seeds them on every boot.
func Preload(s *Server, id string, w *bundling.Matrix, opts bundling.Options) error {
	_, err := s.register(id, "", w, opts, false)
	return err
}

// handleList reports the corpora the caller may see: with auth enabled,
// its own plus the public ones; open servers list everything. Evicted and
// not-yet-reloaded corpora are listed too — they still hold quota and
// remain deletable, so the listing agrees with the quota accounting and
// lets a tenant find the IDs that DELETE would free.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	infos := s.reg.list()
	if s.cfg.Auth.Enabled() {
		tenant := recordOf(w).tenant
		visible := infos[:0]
		for _, info := range infos {
			if info.Tenant == "" || info.Tenant == tenant {
				visible = append(visible, info)
			}
		}
		infos = visible
	}
	writeJSON(w, http.StatusOK, ListCorporaResponse{Corpora: infos})
}

// lookupSession resolves id to an authorized session with its engine, for
// serving. An engine-less entry — LRU-evicted, or untouched since boot — is
// re-indexed from its record first (reload). Authorization runs before the
// rebuild, so another tenant probing the ID cannot make the daemon churn
// index builds. Returns nil after writing the error response.
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request, id string) *session {
	for {
		sess, ok := s.reg.peek(id)
		if !ok {
			s.fail(w, http.StatusNotFound, "no corpus %q", id)
			return nil
		}
		if !s.authorize(w, sess) {
			return nil
		}
		if sess.solver != nil {
			s.reg.touch(sess)
			return sess
		}
		if sess, done := s.reload(w, r, sess); done {
			return sess
		}
		// The entry moved to another generation, or was deleted, while
		// the engine built: look again.
	}
}

// reload re-indexes the engine-less entry stub from the store and swaps the
// engine into the entry, if the entry is still at stub's generation. It
// first waits out that generation's persist, so the record it reads is the
// one the entry names, and it never serves another generation. done=false
// means the entry moved on meanwhile; a nil session with done=true means
// the error response is written.
func (s *Server) reload(w http.ResponseWriter, r *http.Request, stub *session) (sess *session, done bool) {
	stub.waitDurable()
	rec, ok := s.cfg.Store.LiveRecord(stub.id)
	if !ok || rec.Generation != stub.version {
		if cur, live := s.reg.peek(stub.id); !live || cur.version != stub.version {
			return nil, false
		}
		// The entry stands but its record does not load: serve the
		// corpus as absent, as after a crash.
		s.fail(w, http.StatusNotFound, "no corpus %q", stub.id)
		return nil, true
	}
	_, isp := obs.StartSpan(r.Context(), "index")
	isp.Tag("reload", true)
	matrix, err := rec.Matrix.Matrix()
	var solver Solver
	if err == nil {
		solver, err = s.cfg.NewSolver(matrix, stub.opts)
	}
	isp.End()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "reload corpus %q: %v", stub.id, err)
		return nil, true
	}
	sess = newSession(stub.id, stub.tenant, solver, stub.opts, stub.createdAt)
	sess.version, sess.persisted = stub.version, true
	cur, evicted := s.reg.resume(stub, sess)
	if cur != sess {
		releaseSession(sess)
		if cur == nil {
			return nil, false
		}
		s.reg.touch(cur) // a concurrent reload of the same entry won
		return cur, true
	}
	s.releaseEvicted(evicted)
	s.met.restores.Add(1)
	return sess, true
}

// handleInfo reports one session.
func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r, r.PathValue("id"))
	if sess == nil {
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

// handleDelete removes a corpus's entry and its persisted record,
// resident or not.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, ok := s.reg.peek(id)
	if !ok {
		s.fail(w, http.StatusNotFound, "no corpus %q", id)
		return
	}
	if !s.authorize(w, sess) {
		return
	}
	// Delete exactly the generation the caller was authorized on: a
	// concurrent re-upload or PATCH may have replaced it, and that newer
	// corpus (possibly another tenant's claim of a freed ID) must survive,
	// record and all.
	if removed := s.reg.swapAt(id, sess.version, nil); removed != nil {
		s.retireSession(removed)
		if !s.deleteRecord(w, id, sess.version) {
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// deleteRecord removes the persisted record of id at generation gen,
// writing the error response on failure (the session may already be gone
// from memory but would resurrect on restart; surface that instead of
// claiming a clean delete). Reports whether the delete succeeded.
func (s *Server) deleteRecord(w http.ResponseWriter, id string, gen int) bool {
	if s.cfg.Store == nil {
		return true
	}
	if err := s.cfg.Store.Delete(id, gen); err != nil {
		s.met.storeErrors.Add(1)
		s.fail(w, http.StatusInternalServerError, "corpus evicted but persistence delete failed: %v", err)
		return false
	}
	return true
}

// handlePatch applies a delta upsert to a corpus in place: the session
// engine derives a new session incrementally (touched stripes, touched
// singletons, span-scoped worker feeds) instead of re-indexing the matrix,
// the registry swaps it in under the next generation — the old snapshot's
// cached results are dropped with it (retireSession) — and the store
// appends one frame to the corpus's delta log, which compaction later folds
// into a snapshot. The body is the JSON MutateCorpusRequest or, with
// Content-Type codec.ContentType, a binary codec delta envelope.
func (s *Server) handlePatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	recordOf(w).op = "mutate"
	id := r.PathValue("id")
	var req MutateCorpusRequest
	if strings.HasPrefix(r.Header.Get("Content-Type"), codec.ContentType) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		if err != nil {
			s.fail(w, http.StatusBadRequest, "read request: %v", err)
			return
		}
		d, err := codec.DecodeDelta(body)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "decode binary delta: %v", err)
			return
		}
		if d.ID != "" && d.ID != id {
			s.fail(w, http.StatusBadRequest, "delta names corpus %q, path names %q", d.ID, id)
			return
		}
		req.IfGeneration = int(d.IfGeneration)
		req.Cells = d.Cells()
	} else if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if len(req.Cells) == 0 {
		s.fail(w, http.StatusBadRequest, "no cells to apply")
		return
	}
	sess := s.lookupSession(w, r, id)
	if sess == nil {
		return
	}
	if req.IfGeneration != 0 && req.IfGeneration != sess.version {
		s.fail(w, http.StatusConflict, "corpus %q is at generation %d, not %d", id, sess.version, req.IfGeneration)
		return
	}
	// The log frame chains onto the base generation, so the base's own
	// persist must have landed first.
	sess.waitDurable()
	// The incremental repair is engine-bound work (touched-item singleton
	// re-pricing, worker delta feeds), so it runs under an execution slot
	// like a solve.
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	solver, err := func() (Solver, error) {
		defer release() // an engine panic must not leak the slot
		_, msp := obs.StartSpan(r.Context(), "mutate")
		defer msp.End()
		msp.Tag("cells", len(req.Cells))
		switch t := sess.solver.(type) {
		case *bundling.Solver:
			return t.ApplyDelta(req.Cells)
		case DeltaSolver:
			return t.ApplyDeltaSolver(req.Cells)
		}
		return nil, fmt.Errorf("session engine does not support incremental mutation")
	}()
	if err != nil {
		s.fail(w, http.StatusBadRequest, "apply delta: %v", err)
		return
	}
	// A PATCH of a persisted corpus appends a frame to its delta log; one of
	// a memory-only corpus (Preload, -demo) has no record to chain
	// onto and stays memory-only.
	nsess := newSession(sess.id, sess.tenant, solver, sess.opts, sess.createdAt)
	if sess.persisted {
		nsess.persisted, nsess.durable = true, make(chan struct{})
		defer close(nsess.durable)
	}
	replaced, err := s.reg.putReplacing(nsess, sess, s.cfg.Quotas)
	if err != nil {
		releaseSession(nsess)
		if errors.Is(err, errReplacedMeanwhile) {
			s.fail(w, http.StatusConflict, "corpus %q was concurrently replaced; re-read and retry", id)
			return
		}
		s.failAdmit(w, err)
		return
	}
	s.retireSession(replaced)
	if nsess.persisted {
		rec := CorpusRecord{
			ID:             nsess.id,
			Generation:     nsess.version,
			BaseGeneration: sess.version,
			Cells:          req.Cells,
			Entries:        nsess.stats.Entries,
		}
		_, psp := obs.StartSpan(r.Context(), "persist")
		cost, perr := s.cfg.Store.appendDelta(rec)
		psp.Tag("bytes", cost.bytes)
		psp.Tag("fsyncs", cost.fsyncs)
		psp.End()
		if perr != nil {
			// Same contract as an upload: a mutation the caller cannot trust
			// to survive a restart is not accepted. Roll back to what the
			// disk guarantees.
			s.met.storeErrors.Add(1)
			s.rollback(nsess)
			s.fail(w, http.StatusInternalServerError, "persist delta: %v", perr)
			return
		}
	}
	writeJSON(w, http.StatusOK, MutateCorpusResponse{
		Corpus:    nsess.id,
		Version:   nsess.version,
		Applied:   len(req.Cells),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		Info:      nsess.info(),
	})
}

// deadlineHeader is the per-request execution-budget override: a positive
// integer of milliseconds, taking the minimum with Config.DefaultTimeout.
const deadlineHeader = "X-Deadline-Ms"

// requestContext derives a solve/evaluate execution context from the HTTP
// request: the request's own context (canceled when the client
// disconnects), bounded by the X-Deadline-Ms header and the server's
// DefaultTimeout, whichever is tighter. Returns ok=false after writing a
// 400 for a malformed header.
func (s *Server) requestContext(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, bool) {
	budget := s.cfg.DefaultTimeout
	if h := r.Header.Get(deadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			s.fail(w, http.StatusBadRequest, "%s: want a positive integer of milliseconds, got %q", deadlineHeader, h)
			return nil, nil, false
		}
		if d := time.Duration(ms) * time.Millisecond; budget == 0 || d < budget {
			budget = d
		}
	}
	if budget <= 0 {
		return r.Context(), func() {}, true
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	return ctx, cancel, true
}

// admit acquires an execution slot for engine-bound work, shedding with
// 503 + Retry-After when the server is saturated. Returns ok=false after
// writing the response; otherwise the caller must call release.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	_, qsp := obs.StartSpan(r.Context(), "queue")
	release, ok = s.lim.acquire(r.Context())
	qsp.Tag("admitted", ok)
	qsp.End()
	if !ok {
		s.met.shedRequests.Add(1)
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusServiceUnavailable, "server overloaded: no execution slot within the queue budget; retry")
	}
	return release, ok
}

// failRun maps an engine-run error to its response: an expired budget (or
// a client already gone) is 504 — the configured deadline, not the
// request, is at fault — and anything else is the run's own 400.
func (s *Server) failRun(w http.ResponseWriter, op string, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.met.deadlineExceeded.Add(1)
		s.fail(w, http.StatusGatewayTimeout, "%s: %v", op, err)
		return
	}
	s.fail(w, http.StatusBadRequest, "%s: %v", op, err)
}

// handleSolve runs a configuration algorithm on a session, serving repeats
// from the result cache.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := recordOf(w)
	rec.op = "solve"
	sess := s.lookupSession(w, r, r.PathValue("id"))
	if sess == nil {
		return
	}
	var req SolveRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if req.Algorithm == "" {
		req.Algorithm = "matching"
	}
	alg, err := bundling.AlgorithmByName(req.Algorithm)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	rec.algorithm = req.Algorithm
	cfg, ok := s.cachedRun(w, r, sess, sess.cacheKey("solve", req.Algorithm), func(ctx context.Context) (*bundling.Configuration, error) {
		return sess.solver.SolveContext(ctx, alg)
	})
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, SolveResponse{
		Corpus:    sess.id,
		Version:   sess.version,
		Algorithm: req.Algorithm,
		Cached:    rec.cached,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		Config:    configDoc(cfg),
	})
}

// handleEvaluate prices a proposed lineup on a session, serving repeats
// from the result cache.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := recordOf(w)
	rec.op = "evaluate"
	sess := s.lookupSession(w, r, r.PathValue("id"))
	if sess == nil {
		return
	}
	var req EvaluateRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if len(req.Offers) == 0 {
		s.fail(w, http.StatusBadRequest, "no offers to evaluate")
		return
	}
	cfg, ok := s.cachedRun(w, r, sess, sess.cacheKey("evaluate", canonicalOffers(req.Offers)), func(ctx context.Context) (*bundling.Configuration, error) {
		return sess.solver.EvaluateContext(ctx, req.Offers)
	})
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, EvaluateResponse{
		Corpus:    sess.id,
		Version:   sess.version,
		Cached:    rec.cached,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		Config:    configDoc(cfg),
	})
}

// cachedRun serves a solve or evaluate from the result cache, or runs it
// on a miss: an execution slot, then the request's execution context, then
// the engine call on the handler's own goroutine, then the result cached
// under key. The request's deadline, disconnect and trace reach the engine,
// and a panic reaches observe with the slot released. ok=false means the
// error response is written.
func (s *Server) cachedRun(w http.ResponseWriter, r *http.Request, sess *session, key string, run func(context.Context) (*bundling.Configuration, error)) (cfg *bundling.Configuration, ok bool) {
	rec := recordOf(w)
	cfg, rec.cached = s.cache.get(key)
	rec.looked = true
	if rec.cached {
		s.met.cacheHits.Add(1)
		return cfg, true
	}
	s.met.cacheMisses.Add(1)
	release, ok := s.admit(w, r)
	if !ok {
		return nil, false
	}
	defer release()
	ctx, cancel, ok := s.requestContext(w, r)
	if !ok {
		return nil, false
	}
	defer cancel()
	cfg, err := run(ctx)
	if err != nil {
		s.failRun(w, rec.op, err)
		return nil, false
	}
	s.cache.put(sess, key, cfg)
	return cfg, true
}

// handleHealth reports liveness and, when a readiness gate is configured,
// degrades to 503 while a required dependency (e.g. a cluster worker span)
// is unreachable.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	goVersion, modVersion, revision := buildInfo()
	resp := HealthResponse{
		Status:        "ok",
		Sessions:      s.reg.len(),
		Corpora:       s.reg.corpora(),
		UptimeSeconds: s.met.Uptime().Seconds(),
		GoVersion:     goVersion,
		BuildVersion:  modVersion,
		Revision:      revision,
	}
	if s.cfg.WorkerStatus != nil {
		resp.Workers = s.cfg.WorkerStatus()
	}
	if s.cfg.Ready != nil {
		if err := s.cfg.Ready(); err != nil {
			resp.Status = "degraded"
			resp.Detail = err.Error()
			writeJSON(w, http.StatusServiceUnavailable, resp)
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics exposes the Prometheus text metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	persisted := -1
	if s.cfg.Store != nil {
		persisted = s.cfg.Store.Len()
	}
	var extraG []GaugeRow
	var extraC []CounterRow
	if s.cfg.ExtraMetrics != nil {
		extraG, extraC = s.cfg.ExtraMetrics()
	}
	usageG, usageC := s.usageMetricRows()
	extraG = append(extraG, usageG...)
	extraC = append(extraC, usageC...)
	if s.cfg.Store != nil {
		extraG = append([]GaugeRow{{
			Name:  "bundled_store_disk_bytes",
			Help:  "Bytes of corpus records and manifest in the persistence directory.",
			Value: float64(s.cfg.Store.DiskBytes()),
		}}, extraG...)
	}
	s.met.render(w, s.reg.len(), s.cache.len(), persisted, extraG, extraC)
}

// canonicalOffers encodes an offer family independent of offer and item
// order, the identity the result cache keys on.
// Offers that only differ in ordering evaluate identically (the engine
// normalizes them), so they should share one cache slot.
func canonicalOffers(offers [][]int) string {
	sets := make([][]int, len(offers))
	for i, off := range offers {
		c := append([]int(nil), off...)
		sort.Ints(c)
		sets[i] = c
	}
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i], sets[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	var b strings.Builder
	for i, set := range sets {
		if i > 0 {
			b.WriteByte(';')
		}
		for k, it := range set {
			if k > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(it))
		}
	}
	return b.String()
}
