package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"bundling/internal/codec"
	"bundling/internal/obs"
)

// feedBytes counts span-feed request-body bytes shipped by HTTP transports
// — the process-wide source of the bundled_feed_bytes_total{codec="bin"}
// metric. Local transports bypass serialization and count nothing.
var feedBytes atomic.Int64

// FeedBytes reports the cumulative span-feed bytes shipped over HTTP
// transports.
func FeedBytes() int64 { return feedBytes.Load() }

// Transport is one worker as the coordinator sees it. Two implementations
// exist: Local wraps an in-process *Worker with direct method calls — the
// deterministic test and single-binary mode — and HTTP speaks the
// bundleworker daemon's JSON API. A Transport must be safe for concurrent
// use; the coordinator fans every request out across spans from multiple
// goroutines.
type Transport interface {
	Assign(ctx context.Context, corpus string, span *AssignRequest) error
	Drop(ctx context.Context, corpus string) error
	Vector(ctx context.Context, corpus string, req VectorRequest) (VectorResponse, error)
	Union(ctx context.Context, corpus string, req UnionRequest) (VectorResponse, error)
	Stats(ctx context.Context, corpus string, req StatsRequest) (StatsResponse, error)
	Hist(ctx context.Context, corpus string, req HistRequest) (HistResponse, error)
	Health(ctx context.Context) (WorkerHealth, error)
	// Addr identifies the worker in logs, stats and health details.
	Addr() string
}

// DeltaTransport is the optional span-delta extension of Transport: rebasing
// a resident span under a new corpus key by shipping only the mutated cells.
// The coordinator asserts it per worker; a transport (or wrapper) that does
// not implement it — or answers any error — simply gets the full span feed
// instead, so mixed fleets stay correct.
type DeltaTransport interface {
	Delta(ctx context.Context, corpus string, req DeltaRequest) error
}

// errDeltaUnsupported is what a guarded transport answers when its raw
// transport has no delta support; the coordinator treats it like any other
// delta failure and ships the full span.
var errDeltaUnsupported = errors.New("cluster: wrapped transport does not support span deltas")

// Local is the in-process transport: direct calls into a *Worker in the
// same address space, bypassing serialization entirely.
type Local struct {
	W    *Worker
	Name string // optional label for stats/health (default "inproc")
}

// NewLocal wraps a worker in an in-process transport.
func NewLocal(w *Worker, name string) *Local { return &Local{W: w, Name: name} }

func (l *Local) Assign(_ context.Context, corpus string, req *AssignRequest) error {
	return l.W.Assign(corpus, req.Span)
}

func (l *Local) Delta(_ context.Context, corpus string, req DeltaRequest) error {
	return l.W.Delta(corpus, req)
}

func (l *Local) Drop(_ context.Context, corpus string) error {
	l.W.Drop(corpus)
	return nil
}

func (l *Local) Vector(_ context.Context, corpus string, req VectorRequest) (VectorResponse, error) {
	return l.W.Vector(corpus, req)
}

func (l *Local) Union(_ context.Context, corpus string, req UnionRequest) (VectorResponse, error) {
	return l.W.Union(corpus, req)
}

func (l *Local) Stats(_ context.Context, corpus string, req StatsRequest) (StatsResponse, error) {
	return l.W.Stats(corpus, req)
}

func (l *Local) Hist(_ context.Context, corpus string, req HistRequest) (HistResponse, error) {
	return l.W.Hist(corpus, req)
}

func (l *Local) Health(_ context.Context) (WorkerHealth, error) {
	return l.W.Health(), nil
}

func (l *Local) Addr() string {
	if l.Name != "" {
		return l.Name
	}
	return "inproc"
}

// HTTP speaks the bundleworker API at a base URL: binary codec span and
// delta feeds, JSON for everything else.
type HTTP struct {
	base string
	hc   *http.Client
	// Per-worker wire accounting: request/response body bytes across all
	// RPCs, plus span-feed bytes (the fleet view's feed column; the
	// package-level FeedBytes counter stays the process-wide /metrics
	// source).
	bytesOut, bytesIn, feedBin atomic.Int64
}

// TransportBytes is one HTTP transport's cumulative wire traffic.
type TransportBytes struct {
	BytesOut, BytesIn int64 // request payloads sent / response bodies read
	FeedBin           int64 // span-feed payload bytes (binary codec)
}

// Bytes reports this transport's cumulative wire traffic. Local transports
// move no bytes and do not implement it.
func (h *HTTP) Bytes() TransportBytes {
	return TransportBytes{
		BytesOut: h.bytesOut.Load(),
		BytesIn:  h.bytesIn.Load(),
		FeedBin:  h.feedBin.Load(),
	}
}

// countingReader counts response-body bytes as they are decoded.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// defaultClient is the transport's shared HTTP client: a bounded dial
// timeout so a blackholed worker fails fast instead of hanging a feed, and
// an idle pool sized for scatter/gather fan-out (the net/http default of 2
// idle connections per host would redial on nearly every concurrent RPC).
var defaultClient = &http.Client{
	Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	},
}

// NewHTTP returns a transport for the bundleworker at baseURL (scheme
// optional; "host:port" gets "http://"). httpClient nil selects the
// package's pooled default client.
func NewHTTP(baseURL string, httpClient *http.Client) *HTTP {
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	if httpClient == nil {
		httpClient = defaultClient
	}
	return &HTTP{base: strings.TrimRight(baseURL, "/"), hc: httpClient}
}

func (h *HTTP) Addr() string { return h.base }

// do issues one JSON request. 409 maps to ErrSpan (re-feed and retry); other
// non-2xx statuses surface as errors.
func (h *HTTP) do(ctx context.Context, method, path string, in, out any) error {
	var buf []byte
	if in != nil {
		var err error
		if buf, err = json.Marshal(in); err != nil {
			return err
		}
	}
	return h.doBytes(ctx, method, path, "application/json", buf, out)
}

// doBytes issues one request with an explicit body encoding — the seam the
// binary span feed shares with the JSON RPCs.
func (h *HTTP) doBytes(ctx context.Context, method, path, contentType string, payload []byte, out any) error {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, body)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", contentType)
	}
	// Propagate the caller's trace so the worker can record its side of the
	// RPC under the same trace ID; a no-op for untraced contexts.
	obs.Inject(ctx, req.Header)
	h.bytesOut.Add(int64(len(payload)))
	resp, err := h.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	cr := &countingReader{r: resp.Body}
	defer func() { h.bytesIn.Add(cr.n) }()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var apiErr ErrorResponse
		msg := resp.Status
		if json.NewDecoder(cr).Decode(&apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		if resp.StatusCode == http.StatusConflict {
			// 409 is the worker's explicit span-missing/stale rejection; a
			// 404 could just as well be a wrong -workers address pointing at
			// some other HTTP service, which must not trigger the span
			// re-feed ladder on every call.
			return fmt.Errorf("%w: %s: %s", ErrSpan, h.base, msg)
		}
		return fmt.Errorf("cluster: %s: %d: %s", h.base, resp.StatusCode, msg)
	}
	if out == nil {
		// Drain so net/http can reuse the connection for the next RPC.
		_, _ = io.Copy(io.Discard, cr)
		return nil
	}
	return json.NewDecoder(cr).Decode(out)
}

func (h *HTTP) spanPath(corpus, op string) string {
	p := "/v1/spans/" + url.PathEscape(corpus)
	if op != "" {
		p += "/" + op
	}
	return p
}

// Assign feeds a span as a binary codec envelope — the fattest RPC the
// cluster sends, at well under half its JSON size on realistic corpora.
func (h *HTTP) Assign(ctx context.Context, corpus string, req *AssignRequest) error {
	_, esp := obs.StartSpan(ctx, "feed_encode")
	body := codec.EncodeAssign(corpus, req.Span)
	esp.Tag("codec", "binary")
	esp.Tag("bytes", len(body))
	esp.End()
	if err := h.doBytes(ctx, http.MethodPost, h.spanPath(corpus, ""), codec.ContentType, body, nil); err != nil {
		return err
	}
	feedBytes.Add(int64(len(body)))
	h.feedBin.Add(int64(len(body)))
	return nil
}

// Delta ships a span rebase as a binary codec delta envelope; a worker that
// cannot apply it answers an error and the coordinator full-feeds instead.
func (h *HTTP) Delta(ctx context.Context, corpus string, req DeltaRequest) error {
	d := codec.DeltaFromCells(req.BaseCorpus, 0, req.Cells)
	d.FromVersion = req.FromVersion
	d.ToVersion = req.ToVersion
	return h.doBytes(ctx, http.MethodPost, h.spanPath(corpus, "delta"), codec.ContentType, codec.EncodeDelta(d), nil)
}

func (h *HTTP) Drop(ctx context.Context, corpus string) error {
	return h.do(ctx, http.MethodDelete, h.spanPath(corpus, ""), nil, nil)
}

func (h *HTTP) Vector(ctx context.Context, corpus string, req VectorRequest) (VectorResponse, error) {
	var resp VectorResponse
	err := h.do(ctx, http.MethodPost, h.spanPath(corpus, "vector"), req, &resp)
	return resp, err
}

func (h *HTTP) Union(ctx context.Context, corpus string, req UnionRequest) (VectorResponse, error) {
	var resp VectorResponse
	err := h.do(ctx, http.MethodPost, h.spanPath(corpus, "union"), req, &resp)
	return resp, err
}

func (h *HTTP) Stats(ctx context.Context, corpus string, req StatsRequest) (StatsResponse, error) {
	var resp StatsResponse
	err := h.do(ctx, http.MethodPost, h.spanPath(corpus, "stats"), req, &resp)
	return resp, err
}

func (h *HTTP) Hist(ctx context.Context, corpus string, req HistRequest) (HistResponse, error) {
	var resp HistResponse
	err := h.do(ctx, http.MethodPost, h.spanPath(corpus, "hist"), req, &resp)
	return resp, err
}

func (h *HTTP) Health(ctx context.Context) (WorkerHealth, error) {
	var resp WorkerHealth
	err := h.do(ctx, http.MethodGet, "/healthz", nil, &resp)
	return resp, err
}

// Transports builds HTTP transports for a comma-separated worker address
// list — the form the bundled -workers flag takes.
func Transports(addrs string, hc *http.Client) ([]Transport, error) {
	var out []Transport
	for _, a := range strings.Split(addrs, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		out = append(out, NewHTTP(a, hc))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: no worker addresses in %q", addrs)
	}
	return out, nil
}
