package server

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"bundling/internal/obs"
	"bundling/internal/usage"
)

// record is one request's facts, learned once and handed to every sink —
// the op latency metrics, the usage meters, the trace and the log line —
// when the request finishes. It is also the request's response writer, so
// it sees the status and body bytes going out; the guard and the handlers
// reach it with recordOf(w) and fill in what only they know.
type record struct {
	http.ResponseWriter
	id    string // X-Request-Id
	start time.Time
	code  int   // first status written; 0 until then
	out   int64 // response-body bytes written
	body  countingBody

	// Set by the guard: the authenticated tenant ("" with auth off), and
	// whether the request passed the guard — only those are billed.
	tenant   string
	admitted bool
	// Set by the handlers. op names the request_duration_seconds series;
	// corpus defaults to the routed {id}; looked marks a result-cache
	// lookup, whose outcome is cached.
	op, corpus, algorithm string
	looked, cached        bool
}

// recordOf returns the record observe installed as the response writer.
func recordOf(w http.ResponseWriter) *record { return w.(*record) }

func (rec *record) WriteHeader(code int) {
	if rec.code == 0 {
		rec.code = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *record) Write(b []byte) (int, error) {
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	n, err := rec.ResponseWriter.Write(b)
	rec.out += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the connection through the
// record (pprof extends its write deadline that way).
func (rec *record) Unwrap() http.ResponseWriter { return rec.ResponseWriter }

func (rec *record) status() int {
	if rec.code == 0 {
		return http.StatusOK
	}
	return rec.code
}

// countingBody counts the request-body bytes the handler actually read.
type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

// tracedPath reports whether a request path is observed beyond its request
// ID — traced, logged, metered and billed: the /v1 API surface, where
// per-stage timings mean something. /healthz and /metrics probes stay out:
// they are scraped every few seconds and would wash the trace ring out.
func tracedPath(path string) bool {
	return strings.HasPrefix(path, "/v1/") || path == "/v1"
}

// observe is the outermost request middleware. It stamps a server-generated
// X-Request-Id on every response and installs the request's record as the
// response writer; for /v1 requests with tracing on it also opens the
// request-scoped trace — carried on the context and echoed as X-Trace-Id.
// finish runs deferred, so a panicking request still gets its 500 and its
// observation.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &record{ResponseWriter: w, id: obs.NewID(), start: time.Now()}
		w.Header().Set(obs.HeaderRequest, rec.id)
		rec.body.ReadCloser = r.Body
		r.Body = &rec.body
		var tr *obs.Trace
		var root *obs.Span
		if s.traces != nil && tracedPath(r.URL.Path) {
			// A caller-supplied X-Trace-Id joins this request to the
			// caller's trace; otherwise the trace gets a fresh ID.
			traceID, _ := obs.Extract(r.Header)
			tr = obs.NewTrace(traceID, 0)
			tr.OnSpanEnd(s.met.ObserveStage)
			w.Header().Set(obs.HeaderTrace, tr.ID)
			var ctx context.Context
			ctx, root = obs.StartSpan(obs.ContextWithTrace(r.Context(), tr), "request")
			r = r.WithContext(ctx)
		}
		// finish reads the routed {id} from r after the mux returns, so
		// nothing between here and the mux may copy the request.
		defer s.finish(rec, r, tr, root)
		next.ServeHTTP(rec, r)
	})
}

// finish hands a finished request's record once to each sink. It first
// converts a handler panic into a 500 (when no bytes were written yet),
// instead of killing the connection with an opaque empty reply, and
// counts it; the panicking request is then observed like any other.
// http.ErrAbortHandler re-panics: it is net/http's own "drop this
// connection" idiom, not a bug.
func (s *Server) finish(rec *record, r *http.Request, tr *obs.Trace, root *obs.Span) {
	if p := recover(); p != nil {
		if p == http.ErrAbortHandler {
			panic(p)
		}
		s.met.handlerPanics.Add(1)
		s.fail(rec, http.StatusInternalServerError, "internal error: %v", p)
	}
	if !tracedPath(r.URL.Path) {
		return
	}
	dur, status := time.Since(rec.start), rec.status()
	if rec.corpus == "" {
		rec.corpus = r.PathValue("id")
	}
	if rec.op != "" && status < 300 {
		s.met.Observe(rec.op, dur)
	}
	if s.use != nil && rec.admitted {
		sample := usage.Sample{
			Err:      status >= 400,
			Wall:     dur,
			BytesIn:  rec.body.n,
			BytesOut: rec.out,
			CacheHit: rec.cached,
		}
		tenant := rec.tenant
		if tenant == "" {
			tenant = AnonTenant
		}
		s.use.tenants.Add(tenant, sample)
		if rec.corpus != "" {
			s.use.corpora.Add(rec.corpus, sample)
		}
	}
	fields := [...]slog.Attr{
		slog.String("tenant", rec.tenant),
		slog.String("corpus", rec.corpus),
		slog.String("algorithm", rec.algorithm),
	}
	var doc *obs.TraceDoc
	if root != nil {
		root.Tag("method", r.Method)
		root.Tag("path", r.URL.Path)
		root.Tag("request_id", rec.id)
		for _, f := range fields {
			if v := f.Value.String(); v != "" {
				root.Tag(f.Key, v)
			}
		}
		if rec.looked {
			root.Tag("cached", strconv.FormatBool(rec.cached))
		}
		root.Tag("status", strconv.Itoa(status))
		root.End()
		d := tr.Finish()
		s.traces.Push(d)
		doc = &d
	}
	s.logRequest(rec, r, status, dur, fields[:], doc)
}

// logRequest emits the structured per-request log line — traced or not —
// and, past the slow-request budget, the trace's full span tree.
func (s *Server) logRequest(rec *record, r *http.Request, status int, dur time.Duration, fields []slog.Attr, doc *obs.TraceDoc) {
	lg := s.cfg.Logger
	if lg == nil {
		return
	}
	attrs := make([]slog.Attr, 0, 9)
	if doc != nil {
		attrs = append(attrs, slog.String("trace", doc.TraceID))
	}
	attrs = append(attrs,
		slog.String("request_id", rec.id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Float64("dur_ms", float64(dur)/float64(time.Millisecond)),
	)
	for _, f := range fields {
		if f.Value.String() != "" {
			attrs = append(attrs, f)
		}
	}
	level := slog.LevelInfo
	switch {
	case status >= 500:
		level = slog.LevelError
	case status >= 400:
		level = slog.LevelWarn
	}
	lg.LogAttrs(context.Background(), level, "request", attrs...)
	if doc != nil && s.cfg.SlowRequest > 0 && dur >= s.cfg.SlowRequest {
		lg.LogAttrs(context.Background(), slog.LevelWarn, "slow request",
			slog.String("trace", doc.TraceID),
			slog.String("request_id", rec.id),
			slog.Duration("budget", s.cfg.SlowRequest),
			slog.Float64("dur_ms", doc.DurMS),
			slog.String("spans", "\n"+doc.Tree()))
	}
}
