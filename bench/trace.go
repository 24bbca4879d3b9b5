package main

// The traced run: spans recorded from the bench's own code around the calls
// into each layer — the client call, a wrapper around Server.Handler(), a
// timing server.Solver installed via Config.NewSolver, and (fleet) a timing
// cluster.Transport per worker. Spans live in memory and are written to
// trace.jsonl when the phase ends; nothing inside the program changes.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bundling"
	"bundling/internal/cluster"
	"bundling/internal/server"
)

// spanRec is one recorded span. Times are nanoseconds from the recorder's
// epoch. Req is the client span (request) the span belongs to.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"` // client, server, config or cluster
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *spanRec) dur() int64 { return s.End - s.Start }

// recorder collects spans while on is set.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	on    atomic.Bool

	mu     sync.Mutex
	spans  []spanRec
	builds []time.Duration // index builds, recorded whether or not on is set
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s spanRec) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

type spanKey struct{}

func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// open starts a span under the context's span and returns the child
// context and the function that records it.
func (r *recorder) open(ctx context.Context, layer, name, key string) (context.Context, func()) {
	id := r.ids.Add(1)
	parent := spanFrom(ctx)
	start := r.now()
	return withSpan(ctx, id), func() {
		r.add(spanRec{ID: id, Parent: parent, Layer: layer, Name: name, Key: key, Start: start, End: r.now()})
	}
}

// clientCall times one client request as a root span.
func (r *recorder) clientCall(ctx context.Context, op, key string, fn func(context.Context) error) (time.Duration, error) {
	start := time.Now()
	ctx, end := r.open(ctx, "client", op, key)
	err := fn(ctx)
	end()
	return time.Since(start), err
}

// spanHeader carries the client span across the loopback hop.
const spanHeader = "X-Bench-Span"

// spanTransport stamps the request context's client span on the request.
type spanTransport struct{ next http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id := spanFrom(req.Context()); id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.next.RoundTrip(req)
}

// handler wraps Server.Handler(): one server span per bench request, whose
// ID the request context carries on to the engine.
func (r *recorder) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		if parent == 0 {
			next.ServeHTTP(w, req)
			return
		}
		ctx, end := r.open(withSpan(req.Context(), parent), "server", req.Method, "")
		next.ServeHTTP(w, req.WithContext(ctx))
		end()
	})
}

// timedSolver is a server.Solver (and DeltaSolver, and io.Closer) that
// records a config span around every engine call. Evaluates reach it from
// the batcher's own goroutines and patches carry no context, so those spans
// are joined to their request by key at analysis time.
type timedSolver struct {
	inner server.Solver
	rec   *recorder
}

// newSolver builds an engine behind a timedSolver, timing the index build.
func (r *recorder) newSolver(build func() (server.Solver, error)) (server.Solver, error) {
	start := time.Now()
	s, err := build()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.builds = append(r.builds, time.Since(start))
	r.mu.Unlock()
	return &timedSolver{inner: s, rec: r}, nil
}

func (t *timedSolver) SolveContext(ctx context.Context, a bundling.Algorithm) (*bundling.Configuration, error) {
	ctx, end := t.rec.open(ctx, "config", "solve:"+a.Name(), "")
	defer end()
	return t.inner.SolveContext(ctx, a)
}

func (t *timedSolver) EvaluateContext(ctx context.Context, offers [][]int) (*bundling.Configuration, error) {
	ctx, end := t.rec.open(ctx, "config", "evaluate", offersKey(offers))
	defer end()
	return t.inner.EvaluateContext(ctx, offers)
}

func (t *timedSolver) Stats() bundling.SolverStats { return t.inner.Stats() }

func (t *timedSolver) ApplyDeltaSolver(cells []bundling.DeltaCell) (server.Solver, error) {
	_, end := t.rec.open(context.Background(), "config", "apply_delta", cellsKey(cells))
	defer end()
	var next server.Solver
	switch in := t.inner.(type) {
	case *bundling.Solver:
		s, err := in.ApplyDelta(cells)
		if err != nil {
			return nil, err
		}
		next = s
	case server.DeltaSolver:
		s, err := in.ApplyDeltaSolver(cells)
		if err != nil {
			return nil, err
		}
		next = s
	default:
		return nil, fmt.Errorf("engine %T does not support incremental mutation", t.inner)
	}
	return &timedSolver{inner: next, rec: t.rec}, nil
}

func (t *timedSolver) Close() error {
	if c, ok := t.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// timedTransport records a cluster span around every worker RPC.
type timedTransport struct {
	t   cluster.Transport
	rec *recorder
}

func (tt *timedTransport) Assign(ctx context.Context, corpus string, req *cluster.AssignRequest) error {
	ctx, end := tt.rec.open(ctx, "cluster", "assign", "")
	defer end()
	return tt.t.Assign(ctx, corpus, req)
}

func (tt *timedTransport) Drop(ctx context.Context, corpus string) error {
	ctx, end := tt.rec.open(ctx, "cluster", "drop", "")
	defer end()
	return tt.t.Drop(ctx, corpus)
}

func (tt *timedTransport) Vector(ctx context.Context, corpus string, req cluster.VectorRequest) (cluster.VectorResponse, error) {
	ctx, end := tt.rec.open(ctx, "cluster", "vector", "")
	defer end()
	return tt.t.Vector(ctx, corpus, req)
}

func (tt *timedTransport) Union(ctx context.Context, corpus string, req cluster.UnionRequest) (cluster.VectorResponse, error) {
	ctx, end := tt.rec.open(ctx, "cluster", "union", "")
	defer end()
	return tt.t.Union(ctx, corpus, req)
}

func (tt *timedTransport) Stats(ctx context.Context, corpus string, req cluster.StatsRequest) (cluster.StatsResponse, error) {
	ctx, end := tt.rec.open(ctx, "cluster", "stats", "")
	defer end()
	return tt.t.Stats(ctx, corpus, req)
}

func (tt *timedTransport) Hist(ctx context.Context, corpus string, req cluster.HistRequest) (cluster.HistResponse, error) {
	ctx, end := tt.rec.open(ctx, "cluster", "hist", "")
	defer end()
	return tt.t.Hist(ctx, corpus, req)
}

func (tt *timedTransport) Health(ctx context.Context) (cluster.WorkerHealth, error) {
	return tt.t.Health(ctx)
}

func (tt *timedTransport) Addr() string { return tt.t.Addr() }

// ledger is the traced phase attributed to layers: per-request means of
// each layer's self time (span duration minus child coverage), in µs. The
// client's self time is the call less its server span, so the self times
// add up to the call by construction.
type ledger struct {
	requests    int
	callUS      float64
	clientSelf  float64
	handlerUS   float64
	handlerSelf float64
	configSelf  float64
	clusterSelf float64
	unjoined    int                // engine spans no request could claim
	byName      map[string][]int64 // config and cluster span durations (ns) by name
}

// meanUS is the mean duration of the spans with the given name prefix.
func (l ledger) meanUS(prefix string) (float64, int) {
	var sum int64
	n := 0
	for name, ds := range l.byName {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		for _, d := range ds {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sum) / float64(n) / 1e3, n
}

// interval is a closed span of recorder time.
type interval struct{ lo, hi int64 }

// clip intersects s with w; ok is false when they do not overlap.
func clip(s, w interval) (interval, bool) {
	lo, hi := max(s.lo, w.lo), min(s.hi, w.hi)
	return interval{lo, hi}, hi > lo
}

// coverage is the length of the union of intervals.
func coverage(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = x
			continue
		}
		cur.hi = max(cur.hi, x.hi)
	}
	return total + cur.hi - cur.lo
}

// analyze joins the spans into request trees and attributes each request's
// latency to the layers. Engine spans without a parent (batched evaluates,
// patches) are joined by key to the client span that sent that lineup or
// patch, through the server span whose interval contains them.
func (r *recorder) analyze() ledger {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := r.spans
	led := ledger{byName: map[string][]int64{}}
	byKey := map[string][]int{}
	serverOf := map[int64][]int{} // client span ID → its server spans
	for i := range spans {
		s := &spans[i]
		switch s.Layer {
		case "client":
			if s.Key != "" {
				byKey[s.Key] = append(byKey[s.Key], i)
			}
		case "server":
			serverOf[s.Parent] = append(serverOf[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Layer != "config" || s.Parent != 0 {
			continue
		}
	join:
		for _, ci := range byKey[s.Key] {
			for _, hi := range serverOf[spans[ci].ID] {
				h := &spans[hi]
				if h.Start <= s.Start && s.End <= h.End {
					s.Parent = h.ID
					break join
				}
			}
		}
		if s.Parent == 0 {
			led.unjoined++
		}
	}
	children := map[int64][]int{}
	for i := range spans {
		if spans[i].Parent != 0 {
			children[spans[i].Parent] = append(children[spans[i].Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Layer == "config" || s.Layer == "cluster" {
			led.byName[s.Name] = append(led.byName[s.Name], s.dur())
		}
	}
	var call, clientSelf, handler, handlerSelf, configSelf, clusterSelf int64
	for i := range spans {
		c := &spans[i]
		if c.Layer != "client" {
			continue
		}
		c.Req = c.ID
		led.requests++
		call += c.dur()
		civ := interval{c.Start, c.End}
		var hivs []interval
		for _, hi := range children[c.ID] {
			h := &spans[hi]
			h.Req = c.ID
			hiv, ok := clip(interval{h.Start, h.End}, civ)
			if !ok {
				continue
			}
			hivs = append(hivs, hiv)
			handler += h.dur()
			var eivs, rivs []interval
			for _, ei := range children[h.ID] {
				e := &spans[ei]
				e.Req = c.ID
				eiv, ok := clip(interval{e.Start, e.End}, hiv)
				if !ok {
					continue
				}
				eivs = append(eivs, eiv)
				for _, ri := range children[e.ID] {
					rs := &spans[ri]
					rs.Req = c.ID
					if riv, ok := clip(interval{rs.Start, rs.End}, eiv); ok {
						rivs = append(rivs, riv)
					}
				}
			}
			ecov, rcov := coverage(eivs), coverage(rivs)
			handlerSelf += hiv.hi - hiv.lo - ecov
			configSelf += ecov - rcov
			clusterSelf += rcov
		}
		clientSelf += c.dur() - coverage(hivs)
	}
	if led.requests > 0 {
		n := float64(led.requests) * 1e3
		led.callUS = float64(call) / n
		led.clientSelf = float64(clientSelf) / n
		led.handlerUS = float64(handler) / n
		led.handlerSelf = float64(handlerSelf) / n
		led.configSelf = float64(configSelf) / n
		led.clusterSelf = float64(clusterSelf) / n
	}
	return led
}

// writeJSONL writes every recorded span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
