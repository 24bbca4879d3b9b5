package cluster

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bundling"
	"bundling/internal/obs"
	"bundling/internal/wtp"
)

// Config tunes a coordinator Solver.
type Config struct {
	// Workers is the fleet, one Transport per worker (required). Stripe
	// spans are partitioned evenly across it: span i's primary is worker i,
	// its retry replica worker i+1 (mod fleet size).
	Workers []Transport
	// Corpus is the key the solver's spans register under on the workers.
	// Empty selects a process-unique key, so concurrent coordinators (and
	// successive re-uploads of one serving session) never collide on a
	// shared fleet.
	Corpus string
	// RequestTimeout bounds each worker RPC (0 = 10s).
	RequestTimeout time.Duration
	// FeedTimeout bounds a span (re-)feed, which ships the span's full
	// postings and needs a larger budget than a query RPC
	// (0 = max(60s, RequestTimeout)).
	FeedTimeout time.Duration
	// FeedBackoff is the initial suppression window after a failed span
	// feed to a worker (0 = 5s). Each consecutive failure to the same
	// worker doubles the window — with ±25% jitter so a fleet's retries
	// de-synchronize — up to FeedBackoffMax; a successful feed resets it.
	FeedBackoff time.Duration
	// FeedBackoffMax caps the exponential feed backoff (0 = 2m).
	FeedBackoffMax time.Duration
}

// Stats counts the coordinator's worker traffic; tests and the bench
// harness read it to prove which path served a workload.
type Stats struct {
	Workers        int   // fleet size
	Spans          int   // stripe spans the corpus was partitioned into
	RemoteCalls    int64 // RPCs issued (including retries)
	Refeeds        int64 // spans re-fed after a stale/missing rejection
	FeedFailures   int64 // span feeds that failed (worker backs off feedBackoff)
	ReplicaRetries int64 // span requests retried on the replica worker
	LocalFallbacks int64 // span requests computed from the local replica
	BreakerSkips   int64 // RPCs rejected without dialing by an open circuit breaker
	DeltaFeeds     int64 // spans rebased in place on a worker by a delta feed
	DeltaFallbacks int64 // delta feeds that fell back to a full span feed
}

// Solver is the coordinator: a bundling session whose striped reductions
// scatter across the worker fleet and gather in stripe order. It implements
// the same Solve/Evaluate/Stats surface as bundling.Solver (and the server
// package's Solver interface), so the bundled daemon serves it
// transparently. Like the local solver it is safe for concurrent use.
//
// Correctness never depends on the fleet: every RPC carries the corpus
// snapshot version (a stale or empty worker is re-fed and retried, never
// trusted), and a span whose workers stay unreachable is computed from the
// coordinator's local span store. A dead fleet degrades throughput to
// single-machine speed, not results.
type Solver struct {
	inner *bundling.Solver
	exec  *executor
	opts  bundling.Options
}

// NewSolver partitions the corpus's stripes into spans, feeds them to the
// workers, and builds the coordinator session on top.
func NewSolver(w *bundling.Matrix, opts bundling.Options, cfg Config) (*Solver, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	corpus := cfg.Corpus
	if corpus == "" {
		corpus = uniqueCorpus()
	}
	x := &executor{corpus: corpus, version: snapshotNonce(), workers: cfg.Workers, budget: cfg.budget()}
	// Build the session first: singletons index from its local shard, so
	// the executor is not consulted until it is wired below, and span
	// extraction reads the session's own shard instead of building a
	// second columnar index of the same matrix.
	inner, err := bundling.NewSolverOn(w, opts, x)
	if err != nil {
		return nil, err
	}
	x.partition(inner)
	// Feed every span to its primary up front, asynchronously under the
	// feed budget (a span upload can dwarf a query RPC, but an unresponsive
	// worker must not stall session creation for it — the eager feed is
	// purely best effort: an unfed worker is fed lazily by the first
	// request's re-feed path or covered by the replica and local fallback,
	// and surfaces through the Ready probe). Close waits for these, so a
	// released session cannot be resurrected by a straggling feed.
	for _, sl := range x.spans {
		x.goFeed(func(ctx context.Context) { _ = x.assign(ctx, sl.primary, sl) })
	}
	return &Solver{inner: inner, exec: x, opts: opts}, nil
}

// Close releases the solver's spans on every worker that may hold one
// (primary and retry replica), best effort: an unreachable worker simply
// keeps its copy until the fleet-side LRU bound recycles it. The serving
// layer calls this when a session is replaced, evicted or deleted, so
// long-gone corpora do not pin worker memory.
func (s *Solver) Close() error {
	x := s.exec
	x.feeding.Wait() // don't let a straggling eager feed resurrect a span
	x.forEachSpan(func(i int) {
		sl := x.spans[i]
		holders := []int{sl.primary}
		if len(x.workers) > 1 {
			holders = append(holders, (sl.primary+1)%len(x.workers))
		}
		for _, wi := range holders {
			ctx, cancel := context.WithTimeout(context.Background(), x.timeout)
			_ = x.workers[wi].Drop(ctx, sl.key)
			cancel()
		}
	})
	return nil
}

// Solve runs a configuration algorithm; its vector construction scatters
// across the fleet.
func (s *Solver) Solve(a bundling.Algorithm) (*bundling.Configuration, error) {
	return s.SolveContext(context.Background(), a)
}

// SolveContext is Solve under a caller context: every fan-out RPC and
// re-feed the run issues derives its deadline from ctx, and a canceled ctx
// aborts the run at its next iteration boundary — a disconnected client
// stops consuming the fleet.
func (s *Solver) SolveContext(ctx context.Context, a bundling.Algorithm) (*bundling.Configuration, error) {
	return s.inner.SolveContext(ctx, a)
}

// Evaluate prices a caller-proposed lineup in a fixed number of
// scatter/gather rounds, whatever its size. Pure-bundling evaluates take the
// aggregate fast path — two rounds for the whole lineup (every offer's
// maximum, then every interested offer's histogram) of O(T) response data
// per offer and span instead of shipping every interested consumer; mixed
// evaluates, which thread per-consumer state between offers, gather every
// offer's full vector in one round through the executor.
func (s *Solver) Evaluate(offers [][]int) (*bundling.Configuration, error) {
	return s.EvaluateContext(context.Background(), offers)
}

// EvaluateContext is Evaluate under a caller context; see SolveContext.
func (s *Solver) EvaluateContext(ctx context.Context, offers [][]int) (*bundling.Configuration, error) {
	if s.opts.Strategy == bundling.Mixed {
		return s.inner.EvaluateContext(ctx, offers)
	}
	return s.inner.EvaluateAggregatedContext(ctx, offers, s.exec)
}

// Algorithms lists the algorithms runnable on this session.
func (s *Solver) Algorithms() []bundling.Algorithm { return s.inner.Algorithms() }

// Stats returns the session's corpus and index statistics (the serving
// layer's cache-key source), identical to the local solver's.
func (s *Solver) Stats() bundling.SolverStats { return s.inner.Stats() }

// Corpus returns the key the solver's spans register under on the workers.
func (s *Solver) Corpus() string { return s.exec.corpus }

// ClusterStats snapshots the coordinator's worker-traffic counters.
func (s *Solver) ClusterStats() Stats {
	return Stats{
		Workers:        len(s.exec.workers),
		Spans:          len(s.exec.spans),
		RemoteCalls:    s.exec.remoteCalls.Load(),
		Refeeds:        s.exec.refeeds.Load(),
		FeedFailures:   s.exec.feedFailures.Load(),
		ReplicaRetries: s.exec.replicaRetries.Load(),
		LocalFallbacks: s.exec.localFallbacks.Load(),
		BreakerSkips:   s.exec.breakerSkips.Load(),
		DeltaFeeds:     s.exec.deltaFeeds.Load(),
		DeltaFallbacks: s.exec.deltaFallbacks.Load(),
	}
}

// Ready returns a readiness probe over the fleet for the serving daemon's
// /healthz gate: it errors while any worker is unreachable. The whole
// configured fleet counts as required — span partitions are rebuilt per
// corpus upload and any worker can become a primary or retry replica for
// the next session, so a fleet the operator declared via -workers is a
// fleet the operator expects up. Solves keep succeeding through the local
// fallback meanwhile — the probe is the operator's signal that the fleet
// no longer carries its share.
func Ready(workers []Transport, timeout time.Duration) func() error {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return func() error {
		// Probe concurrently: the gate must answer within one probe
		// timeout even when several workers are down, or orchestrator
		// health checks time out and kill a coordinator that is still
		// serving correctly via the local fallback.
		_, errs := probe(context.Background(), workers, timeout)
		var down []string
		for i, err := range errs {
			if err != nil {
				down = append(down, workers[i].Addr())
			}
		}
		if len(down) > 0 {
			return fmt.Errorf("cluster: %d/%d workers unreachable: %s", len(down), len(workers), strings.Join(down, ", "))
		}
		return nil
	}
}

// --- executor ---------------------------------------------------------------

// spanSlot is one stripe span of the partition: its wire doc (kept for
// re-feeding workers), its primary worker, and a lazily materialized local
// store that serves as the last-resort replica.
type spanSlot struct {
	// key is the worker-side registration key: the corpus key plus the
	// span's first stripe. Keying per span (not per corpus) lets one worker
	// hold several spans of the same corpus — which is exactly what happens
	// when a replica covers a dead primary's span alongside its own.
	key     string
	doc     *wtp.SpanDoc
	hi      int // consumer upper bound (exclusive); where a delta's cells are cut
	primary int
	// feedFailUntil[worker] is the unix-nano deadline before which re-feeds
	// to that worker are skipped after a failed span upload, so a worker
	// that cannot ingest the span is not hammered with the full transfer on
	// every request. feedFails[worker] counts consecutive failures, driving
	// the capped exponential growth of that window.
	feedFailUntil []atomic.Int64
	feedFails     []atomic.Int32

	localOnce sync.Once
	local     *wtp.SpanStore
}

// localStore materializes the span's local replica from the same wire doc
// the workers ingest, so fallback arithmetic is identical to a worker's.
func (sl *spanSlot) localStore() *wtp.SpanStore {
	sl.localOnce.Do(func() {
		sp, err := sl.doc.Store()
		if err != nil {
			// The doc came from our own shard; failing to rebuild it is a
			// bug, not an operational condition.
			panic(fmt.Sprintf("cluster: local span store: %v", err))
		}
		sl.local = sp
	})
	return sl.local
}

// executor is the scatter/gather StripeExecutor (and Aggregator) behind the
// coordinator: every reduction fans out per span, retries stale workers
// after a re-feed, falls back to the replica worker and then to the local
// span store, and gathers results in stripe order.
type executor struct {
	corpus  string
	version uint64 // session snapshot nonce, presented on every RPC
	workers []Transport
	spans   []*spanSlot
	budget
	alpha   float64
	levels  int
	feeding sync.WaitGroup // in-flight eager span feeds

	remoteCalls    atomic.Int64
	refeeds        atomic.Int64
	feedFailures   atomic.Int64
	replicaRetries atomic.Int64
	localFallbacks atomic.Int64
	breakerSkips   atomic.Int64
	deltaFeeds     atomic.Int64
	deltaFallbacks atomic.Int64
}

// budget is a coordinator's RPC and feed timing, Config's fields with their
// defaults applied; a session derived by ApplyDelta inherits its base's.
type budget struct {
	timeout time.Duration
	feedTO  time.Duration
	backoff time.Duration // initial feed-failure suppression window
	backMax time.Duration // cap on the exponential feed backoff
}

// budget applies the documented defaults to the timing fields.
func (c Config) budget() budget {
	b := budget{timeout: c.RequestTimeout, feedTO: c.FeedTimeout, backoff: c.FeedBackoff, backMax: c.FeedBackoffMax}
	if b.timeout <= 0 {
		b.timeout = 10 * time.Second
	}
	if b.feedTO <= 0 {
		b.feedTO = max(60*time.Second, b.timeout)
	}
	if b.backoff <= 0 {
		b.backoff = 5 * time.Second
	}
	if b.backMax <= 0 {
		b.backMax = 2 * time.Minute
	}
	b.backMax = max(b.backMax, b.backoff)
	return b
}

// partition reads the pricing grid from the built session and cuts its
// stripes into one span per worker, stamped with the executor's nonce. The
// wire version is a session-unique nonce, not the matrix mutation counter:
// mutation counts of two different corpora can coincide (a counter only
// counts Sets), and under a caller-chosen Corpus key that coincidence would
// let a worker holding the old corpus's span pass the staleness check. A
// fresh nonce per coordinator session makes any cross-session aliasing
// impossible — at worst an identical re-feed. The aggregate pricing
// protocol must bucket worker histograms on exactly the grid the session
// prices with, so the grid is read from the session rather than re-derived
// from option defaults.
func (x *executor) partition(inner *bundling.Solver) {
	x.levels, x.alpha = inner.PricingGrid()
	st := inner.Stats()
	for i, doc := range inner.Spans(len(x.workers)) {
		doc.Version = x.version
		x.spans = append(x.spans, &spanSlot{
			key:           fmt.Sprintf("%s/%d", x.corpus, doc.Start),
			doc:           doc,
			hi:            min(doc.End*st.StripeSize, st.Consumers),
			primary:       i % len(x.workers),
			feedFailUntil: make([]atomic.Int64, len(x.workers)),
			feedFails:     make([]atomic.Int32, len(x.workers)),
		})
	}
}

// goFeed runs one best-effort span feed in the background under the feed
// budget, tracked by the feeding group that Close and ApplyDelta wait on.
func (x *executor) goFeed(feed func(ctx context.Context)) {
	x.feeding.Add(1)
	go func() {
		defer x.feeding.Done()
		ctx, cancel := context.WithTimeout(context.Background(), x.feedTO)
		defer cancel()
		feed(ctx)
	}()
}

// assign ships span sl whole to worker wi.
func (x *executor) assign(ctx context.Context, wi int, sl *spanSlot) error {
	return x.workers[wi].Assign(ctx, sl.key, &AssignRequest{Corpus: sl.key, Span: sl.doc})
}

// nextFeedBackoff computes the suppression window after the n-th (1-based)
// consecutive feed failure: initial·2^(n-1) with ±25% jitter, capped.
func (x *executor) nextFeedBackoff(n int32) time.Duration {
	d := x.backoff
	for i := int32(1); i < n && d < x.backMax; i++ {
		d *= 2
	}
	if d > x.backMax {
		d = x.backMax
	}
	// ±25% jitter de-synchronizes retries across coordinators and spans.
	j := time.Duration(mrand.Int63n(int64(d)/2+1)) - d/4
	return d + j
}

// forEachSpan runs fn for every span index, concurrently when there is more
// than one span.
func (x *executor) forEachSpan(fn func(i int)) {
	if len(x.spans) == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := range x.spans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// gather runs one request per span, concurrently, and returns the replies
// in stripe order: one scatter round. Each request runs the retry ladder:
// primary (with a re-feed retry on a stale/missing span), then the replica
// worker (fed on demand), then the local span store. A reply that fails
// valid — a worker answering with the wrong shape — is recomputed locally
// too, before it can reach a reduction. It cannot fail — the ladder ends on
// local compute — which is what lets the engine's vector paths stay
// error-free. Every RPC derives its deadline from parent, so the ladder
// never outlives its caller: under a canceled parent the workers fail fast
// and the local store answers (the engine aborts at its next cancellation
// check, discarding the result).
func gather[T any](x *executor, parent context.Context, op string, call func(ctx context.Context, t Transport, key string) (T, error), local func(sp *wtp.SpanStore) T, valid func(T) bool) []T {
	parts := make([]T, len(x.spans))
	x.forEachSpan(func(i int) {
		sl := x.spans[i]
		v, err := tryWorker(x, parent, sl, sl.primary, op, "primary", call)
		if err != nil && len(x.workers) > 1 && parent.Err() == nil {
			x.replicaRetries.Add(1)
			v, err = tryWorker(x, parent, sl, (sl.primary+1)%len(x.workers), op, "replica", call)
		}
		if err == nil && valid(v) {
			parts[i] = v
			return
		}
		x.localFallbacks.Add(1)
		_, sp := obs.StartSpan(parent, "rpc")
		sp.Tag("op", op)
		sp.Tag("worker", "local")
		sp.Tag("outcome", "local_fallback")
		parts[i] = local(sl.localStore())
		sp.End()
	})
	return parts
}

// tryWorker issues op against one worker, re-feeding the span and retrying
// once when the worker reports it missing or stale. The re-feed runs under
// its own (larger) deadline — a span upload can dwarf a query RPC — and a
// failed feed backs the worker off with capped exponential jittered delays
// (see Config.FeedBackoff), so a worker that cannot ingest the span is not
// sent the full transfer on every request. An open circuit breaker (see
// NewBreaker) rejects before dialing; the rejection is counted and the
// ladder moves straight on to the replica or local store.
func tryWorker[T any](x *executor, parent context.Context, sl *spanSlot, wi int, op, role string, call func(ctx context.Context, t Transport, key string) (T, error)) (T, error) {
	t := x.workers[wi]
	sctx, sp := obs.StartSpan(parent, "rpc")
	sp.Tag("op", op)
	sp.Tag("worker", t.Addr())
	sp.Tag("role", role)
	defer sp.End()
	ctx, cancel := context.WithTimeout(sctx, x.timeout)
	x.remoteCalls.Add(1)
	v, err := call(ctx, t, sl.key)
	cancel()
	if err != nil && errors.Is(err, ErrBreakerOpen) {
		x.breakerSkips.Add(1)
		sp.Tag("outcome", "breaker_open")
		return v, err
	}
	if err == nil || !errors.Is(err, ErrSpan) || parent.Err() != nil {
		sp.Tag("outcome", outcomeTag(err))
		return v, err
	}
	if time.Now().UnixNano() < sl.feedFailUntil[wi].Load() {
		sp.Tag("outcome", "feed_backoff")
		return v, err
	}
	x.refeeds.Add(1)
	sp.Tag("refeed", true)
	fctx, fcancel := context.WithTimeout(sctx, x.feedTO)
	fctx, fsp := obs.StartSpan(fctx, "feed")
	fsp.Tag("worker", t.Addr())
	aerr := x.assign(fctx, wi, sl)
	fsp.Tag("outcome", outcomeTag(aerr))
	fsp.End()
	fcancel()
	if aerr != nil {
		x.feedFailures.Add(1)
		n := sl.feedFails[wi].Add(1)
		sl.feedFailUntil[wi].Store(time.Now().Add(x.nextFeedBackoff(n)).UnixNano())
		sp.Tag("outcome", "feed_failed")
		return v, err
	}
	sl.feedFails[wi].Store(0)
	sl.feedFailUntil[wi].Store(0)
	rctx, rcancel := context.WithTimeout(sctx, x.timeout)
	defer rcancel()
	x.remoteCalls.Add(1)
	v, err = call(rctx, t, sl.key)
	sp.Tag("outcome", outcomeTag(err))
	return v, err
}

// outcomeTag renders an RPC result for span tags.
func outcomeTag(err error) string {
	if err == nil {
		return "ok"
	}
	return "error"
}

// BundleVector implements config.StripeExecutor as a one-bundle batch.
func (x *executor) BundleVector(ctx context.Context, items []int, theta float64, dstIDs []int, dstVals []float64) ([]int, []float64) {
	parts := x.vectors(ctx, []Bundle{{Items: items, Theta: theta}})
	return appendBundle(parts, 0, dstIDs[:0], dstVals[:0])
}

// BundleVectors implements config.StripeExecutor: one scatter round gathers
// every bundle's per-span vectors, and each bundle's parts concatenate in
// stripe order — identical to the local shard reduction.
func (x *executor) BundleVectors(ctx context.Context, sets [][]int, thetas []float64) ([][]int, [][]float64) {
	parts := x.vectors(ctx, bundlesOf(sets, thetas))
	ids, vals := make([][]int, len(sets)), make([][]float64, len(sets))
	for k := range sets {
		ids[k], vals[k] = appendBundle(parts, k, nil, nil)
	}
	return ids, vals
}

// vectors gathers every span's vectors for the bundles in one scatter round.
func (x *executor) vectors(ctx context.Context, bundles []Bundle) []VectorResponse {
	req := VectorRequest{Version: x.version, Bundles: bundles}
	return gather(x, ctx, "vector",
		func(ctx context.Context, t Transport, key string) (VectorResponse, error) {
			return t.Vector(ctx, key, req)
		},
		func(sp *wtp.SpanStore) VectorResponse { return spanVectors(sp, bundles) },
		func(r VectorResponse) bool { return validVectors(r, len(bundles)) })
}

// validVectors reports whether a vector reply has the shape of n bundles:
// aligned ids and values, and n end offsets ascending to len(IDs).
func validVectors(r VectorResponse, n int) bool {
	if len(r.IDs) != len(r.Vals) || len(r.Ends) != n {
		return false
	}
	end := 0
	for _, e := range r.Ends {
		if e < end {
			return false
		}
		end = e
	}
	return end == len(r.IDs)
}

// appendBundle appends bundle k's per-span vectors to dst in stripe order.
func appendBundle(parts []VectorResponse, k int, dstIDs []int, dstVals []float64) ([]int, []float64) {
	for i := range parts {
		p := &parts[i]
		lo := 0
		if k > 0 {
			lo = p.Ends[k-1]
		}
		dstIDs = append(dstIDs, p.IDs[lo:p.Ends[k]]...)
		dstVals = append(dstVals, p.Vals[lo:p.Ends[k]]...)
	}
	return dstIDs, dstVals
}

// BundleMax implements config.Aggregator: one scatter round, each bundle's
// span maxima reduced by max.
func (x *executor) BundleMax(ctx context.Context, sets [][]int, thetas, maxW []float64) {
	bundles := bundlesOf(sets, thetas)
	req := StatsRequest{Version: x.version, Bundles: bundles}
	parts := gather(x, ctx, "stats",
		func(ctx context.Context, t Transport, key string) (StatsResponse, error) {
			return t.Stats(ctx, key, req)
		},
		func(sp *wtp.SpanStore) StatsResponse { return spanStats(sp, bundles) },
		func(r StatsResponse) bool { return len(r.Max) == len(bundles) })
	for k := range maxW {
		maxW[k] = 0
		for i := range parts {
			if parts[i].Max[k] > maxW[k] {
				maxW[k] = parts[i].Max[k]
			}
		}
	}
}

// BundleHistogram implements config.Aggregator: one scatter round, the span
// histogram partials reduced by element-wise addition in stripe order for
// determinism.
func (x *executor) BundleHistogram(ctx context.Context, sets [][]int, thetas, maxW []float64, counts, sums []float64) {
	bundles := bundlesOf(sets, thetas)
	req := HistRequest{Version: x.version, Bundles: bundles, MaxW: maxW, Alpha: x.alpha, Levels: x.levels}
	parts := gather(x, ctx, "hist",
		func(ctx context.Context, t Transport, key string) (HistResponse, error) {
			return t.Hist(ctx, key, req)
		},
		func(sp *wtp.SpanStore) HistResponse { return spanHist(sp, bundles, maxW, x.alpha, x.levels) },
		func(r HistResponse) bool { return len(r.Counts) == len(counts) && len(r.Sums) == len(sums) })
	for i := range parts {
		for t := range counts {
			counts[t] += parts[i].Counts[t]
			sums[t] += parts[i].Sums[t]
		}
	}
}

// bundlesOf pairs a lineup's sets with their θs for the wire.
func bundlesOf(sets [][]int, thetas []float64) []Bundle {
	bundles := make([]Bundle, len(sets))
	for k, items := range sets {
		bundles[k] = Bundle{Items: items, Theta: thetas[k]}
	}
	return bundles
}

// corpusSeq disambiguates auto-generated corpus keys within one process.
var corpusSeq atomic.Int64

// uniqueCorpus generates a worker-side span key that cannot collide across
// coordinators sharing a fleet: random bytes plus a process-local sequence.
func uniqueCorpus() string {
	b := make([]byte, 6)
	_, _ = crand.Read(b)
	return fmt.Sprintf("c%x-%d", b, corpusSeq.Add(1))
}

// snapshotNonce draws the session's random span identity. The high bit is
// forced so a nonce can never equal a small matrix mutation counter, even
// under a failed entropy read.
func snapshotNonce() uint64 {
	b := make([]byte, 8)
	if _, err := crand.Read(b); err != nil {
		return uint64(time.Now().UnixNano()) | 1<<63
	}
	return binary.LittleEndian.Uint64(b) | 1<<63
}
