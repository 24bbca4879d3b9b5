// Package obs is the dependency-free observability core of the serving
// stack: request-scoped traces (a bounded in-memory span recorder carried
// on context.Context), a newest-first ring of recent traces behind
// /debug/traces, structured-logger construction for the daemons, and the
// runtime gauges exported alongside the Prometheus metrics.
//
// The design center is zero cost when tracing is off: StartSpan returns a
// nil *Span when the context carries no trace, and every *Span method is
// nil-safe, so instrumented code calls Tag/End unconditionally without
// guards and without allocations on the untraced path.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Correlation headers. The server stamps HeaderRequest on every response;
// HeaderTrace/HeaderSpan carry the active trace across coordinator→worker
// RPC hops (and are echoed back to API callers on traced responses).
const (
	HeaderRequest = "X-Request-Id"
	HeaderTrace   = "X-Trace-Id"
	HeaderSpan    = "X-Span-Id"
)

// DefaultMaxSpans bounds how many spans one trace records. A cluster solve
// can issue thousands of per-worker RPCs; past the cap spans still time and
// still feed the stage histograms via the OnSpanEnd hook, but their records
// are dropped (counted in TraceDoc.Dropped) instead of growing the trace.
const DefaultMaxSpans = 512

// NewID returns a fresh 16-hex-char random identifier, used for both trace
// IDs and request IDs.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; fall back to
		// a best-effort unique value rather than panicking in serving code.
		return fmt.Sprintf("%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Tag is one key/value annotation on a span.
type Tag struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanDoc is the JSON form of one finished span. Times are offsets from
// the trace start so a reader can reconstruct the timeline without clock
// math; IDs are sequential within the trace (1 = root, Parent 0 = none).
type SpanDoc struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
	Tags    []Tag   `json:"tags,omitempty"`
}

// TraceDoc is the JSON form of one finished trace, as served by
// /debug/traces (newest first).
type TraceDoc struct {
	TraceID string    `json:"trace_id"`
	Start   time.Time `json:"start"`
	DurMS   float64   `json:"dur_ms"`
	Dropped int       `json:"dropped_spans,omitempty"`
	Spans   []SpanDoc `json:"spans"`
}

// RootTag returns the value of the named tag on the root span ("" if
// absent) — the root span carries the request-level annotations (tenant,
// corpus, algorithm, status).
func (d *TraceDoc) RootTag(key string) string {
	for _, sp := range d.Spans {
		if sp.ID != 1 {
			continue
		}
		for _, t := range sp.Tags {
			if t.Key == key {
				return t.Value
			}
		}
		return ""
	}
	return ""
}

// Tree renders the span tree as indented text lines (one per span, children
// under parents, siblings in start order) — the form dumped to the log for
// over-budget requests.
func (d *TraceDoc) Tree() string {
	children := make(map[int64][]SpanDoc, len(d.Spans))
	for _, sp := range d.Spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartMS < kids[j].StartMS })
	}
	var b strings.Builder
	var walk func(parent int64, depth int)
	walk = func(parent int64, depth int) {
		for _, sp := range children[parent] {
			b.WriteString(strings.Repeat("  ", depth))
			fmt.Fprintf(&b, "%s %.2fms", sp.Name, sp.DurMS)
			for _, t := range sp.Tags {
				fmt.Fprintf(&b, " %s=%s", t.Key, t.Value)
			}
			b.WriteByte('\n')
			walk(sp.ID, depth+1)
		}
	}
	walk(0, 0)
	if d.Dropped > 0 {
		fmt.Fprintf(&b, "(+%d spans dropped)\n", d.Dropped)
	}
	return b.String()
}

// Trace is one request's span recorder. It is safe for concurrent use by
// the fan-out goroutines of a single request; construct with NewTrace.
type Trace struct {
	// ID is the trace identifier carried in X-Trace-Id.
	ID string

	start  time.Time
	max    int
	onEnd  func(name string, d time.Duration)
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []SpanDoc
	dropped int
}

// NewTrace starts a trace. id "" allocates a fresh one; maxSpans <= 0
// selects DefaultMaxSpans.
func NewTrace(id string, maxSpans int) *Trace {
	if id == "" {
		id = NewID()
	}
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Trace{ID: id, start: time.Now(), max: maxSpans}
}

// OnSpanEnd installs a hook called with every span's name and duration as
// it ends — even spans past the record cap — so per-stage histograms see
// the full population. Must be set before spans start; the hook must be
// safe for concurrent calls.
func (t *Trace) OnSpanEnd(fn func(name string, d time.Duration)) { t.onEnd = fn }

// Finish snapshots the trace into its JSON document. Spans still open at
// finish time are not included.
func (t *Trace) Finish() TraceDoc {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := TraceDoc{
		TraceID: t.ID,
		Start:   t.start,
		DurMS:   float64(time.Since(t.start)) / float64(time.Millisecond),
		Dropped: t.dropped,
		Spans:   make([]SpanDoc, len(t.spans)),
	}
	copy(doc.Spans, t.spans)
	sort.Slice(doc.Spans, func(i, j int) bool { return doc.Spans[i].ID < doc.Spans[j].ID })
	return doc
}

// Span is one in-flight timed region. The nil *Span is a valid no-op span
// (returned by StartSpan when the context carries no trace), so callers
// never guard Tag/End.
type Span struct {
	tr     *Trace
	id     int64
	parent int64
	name   string
	start  time.Time
	tags   []Tag
}

// spanTags is the tag capacity a span allocates on its first Tag: the
// engine's per-pass price_candidates span, the most numerous span in a
// trace, carries three, and one allocation of exactly that many keeps the
// trace ring's bytes down where doubling from one would allocate three
// times and leave room for four.
const spanTags = 3

// Tag annotates the span. Values are rendered at call time: an int with
// strconv.Itoa, any other non-string type with fmt.Sprint.
func (s *Span) Tag(key string, value any) {
	if s == nil {
		return
	}
	var str string
	switch v := value.(type) {
	case string:
		str = v
	case int:
		str = strconv.Itoa(v)
	default:
		str = fmt.Sprint(value)
	}
	if s.tags == nil {
		s.tags = make([]Tag, 0, spanTags)
	}
	s.tags = append(s.tags, Tag{Key: key, Value: str})
}

// End closes the span, recording it on its trace (or only feeding the
// OnSpanEnd hook if the trace is at its span cap). End is not idempotent;
// call it exactly once, typically via defer.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	t := s.tr
	if t.onEnd != nil {
		t.onEnd(s.name, d)
	}
	t.mu.Lock()
	if len(t.spans) < t.max {
		t.spans = append(t.spans, SpanDoc{
			ID:      s.id,
			Parent:  s.parent,
			Name:    s.name,
			StartMS: float64(s.start.Sub(t.start)) / float64(time.Millisecond),
			DurMS:   float64(d) / float64(time.Millisecond),
			Tags:    s.tags,
		})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

type traceKey struct{}
type spanKey struct{}

// ContextWithTrace attaches a trace to the context; spans started from the
// returned context (and its descendants) record into it.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// StartSpan opens a child span of the context's current span (the root
// span if none). When the context carries no trace it returns the context
// unchanged and a nil span, making the whole call chain a no-op.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TraceFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	var parent int64
	if ps := SpanFrom(ctx); ps != nil {
		parent = ps.id
	}
	sp := &Span{tr: t, id: t.nextID.Add(1), parent: parent, name: name, start: time.Now()}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// SpanFrom returns the context's current span: nil when the context
// carries no trace, or only the trace with no span opened yet.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Inject stamps the context's trace ID and current span ID onto outgoing
// request headers; a no-op without a trace.
func Inject(ctx context.Context, h http.Header) {
	t := TraceFrom(ctx)
	if t == nil {
		return
	}
	h.Set(HeaderTrace, t.ID)
	if sp := SpanFrom(ctx); sp != nil {
		h.Set(HeaderSpan, strconv.FormatInt(sp.id, 10))
	}
}

// Extract reads the correlation headers from an incoming request: the
// caller's trace ID ("" if untraced) and its current span ID (0 if absent
// or malformed).
func Extract(h http.Header) (traceID string, spanID int64) {
	traceID = h.Get(HeaderTrace)
	if traceID == "" {
		return "", 0
	}
	spanID, _ = strconv.ParseInt(h.Get(HeaderSpan), 10, 64)
	return traceID, spanID
}

// RemoteSpan builds a single-span TraceDoc under a caller-supplied trace
// ID — how a worker records its side of a coordinator RPC so /debug/traces
// on the worker can be joined with the coordinator's trace.
func RemoteSpan(traceID string, parentSpan int64, name string, start time.Time, d time.Duration, tags ...Tag) TraceDoc {
	return TraceDoc{
		TraceID: traceID,
		Start:   start,
		DurMS:   float64(d) / float64(time.Millisecond),
		Spans: []SpanDoc{{
			ID:     1,
			Parent: parentSpan,
			Name:   name,
			DurMS:  float64(d) / float64(time.Millisecond),
			Tags:   tags,
		}},
	}
}
