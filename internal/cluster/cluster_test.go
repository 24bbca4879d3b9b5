package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"bundling"
	"bundling/internal/pricing"
)

// testMatrix builds a deterministic sparse corpus with enough consumers for
// several stripes at the test stripe size.
func testMatrix(t testing.TB, consumers, items int, seed int64) *bundling.Matrix {
	t.Helper()
	w := bundling.NewMatrix(consumers, items)
	rng := rand.New(rand.NewSource(seed))
	for u := 0; u < consumers; u++ {
		k := 2 + rng.Intn(4)
		for j := 0; j < k; j++ {
			w.MustSet(u, rng.Intn(items), 1+rng.Float64()*15)
		}
	}
	return w
}

// fleet builds n in-process workers and their transports.
func fleet(n int) ([]*Worker, []Transport) {
	workers := make([]*Worker, n)
	transports := make([]Transport, n)
	for i := range workers {
		workers[i] = NewWorker(WorkerConfig{})
		transports[i] = NewLocal(workers[i], "")
	}
	return workers, transports
}

// sameConfig asserts two configurations agree within 1e-9 (relative) on
// every aggregate and on the priced bundles themselves.
func sameConfig(t *testing.T, label string, got, want *bundling.Configuration) {
	t.Helper()
	close9 := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
	if !close9(got.Revenue, want.Revenue) || !close9(got.Profit, want.Profit) ||
		!close9(got.Surplus, want.Surplus) || !close9(got.Utility, want.Utility) {
		t.Fatalf("%s: totals (%g,%g,%g,%g) != (%g,%g,%g,%g)", label,
			got.Revenue, got.Profit, got.Surplus, got.Utility,
			want.Revenue, want.Profit, want.Surplus, want.Utility)
	}
	if len(got.Bundles) != len(want.Bundles) {
		t.Fatalf("%s: %d bundles != %d", label, len(got.Bundles), len(want.Bundles))
	}
	for i := range got.Bundles {
		g, w := got.Bundles[i], want.Bundles[i]
		if len(g.Items) != len(w.Items) || !close9(g.Price, w.Price) || !close9(g.Revenue, w.Revenue) {
			t.Fatalf("%s: bundle %d (%v @%g) != (%v @%g)", label, i, g.Items, g.Price, w.Items, w.Price)
		}
		for k := range g.Items {
			if g.Items[k] != w.Items[k] {
				t.Fatalf("%s: bundle %d items %v != %v", label, i, g.Items, w.Items)
			}
		}
	}
	if len(got.Components) != len(want.Components) {
		t.Fatalf("%s: %d components != %d", label, len(got.Components), len(want.Components))
	}
}

// evalOffers is a fixed valid offer family (disjoint, so also laminar) for
// the equivalence tests.
func evalOffers() [][]int {
	return [][]int{{0, 1, 2}, {3, 7}, {4}, {5, 8, 9}}
}

// evalLineups are TestClusterMatchesLocal's evaluate lineups over items
// [0, 12): the fixed family, a single offer, and under mixed bundling nested
// lineups, whose offers price over the parts they contain.
func evalLineups(strategy bundling.Strategy) [][][]int {
	lineups := [][][]int{evalOffers(), {{2, 5, 6}}}
	if strategy == bundling.Mixed {
		lineups = append(lineups,
			[][]int{{0, 1}, {0, 1, 2}, {3, 7}, {3, 4, 7, 8}},
			[][]int{{5}, {5, 6}, {5, 6, 9}, {10}, {10, 11}, {0, 1, 2, 3}})
	}
	return lineups
}

// withUnratedItem copies w with one more item, which no consumer rated.
func withUnratedItem(w *bundling.Matrix) *bundling.Matrix {
	wide := bundling.NewMatrix(w.Consumers(), w.Items()+1)
	for i := 0; i < w.Items(); i++ {
		for _, e := range w.Postings(i) {
			wide.MustSet(e.Consumer, i, e.Value)
		}
	}
	return wide
}

// sameEvaluates asserts the coordinator prices every lineup as the local
// solver does.
func sameEvaluates(t *testing.T, label string, cs *Solver, local *bundling.Solver, lineups [][][]int) {
	t.Helper()
	for _, offers := range lineups {
		want, err := local.Evaluate(offers)
		if err != nil {
			t.Fatalf("%s %v local: %v", label, offers, err)
		}
		got, err := cs.Evaluate(offers)
		if err != nil {
			t.Fatalf("%s %v: %v", label, offers, err)
		}
		sameConfig(t, fmt.Sprintf("%s %v", label, offers), got, want)
	}
}

// TestClusterMatchesLocal is the acceptance gate: all five algorithms, pure
// and mixed, must match the single-machine Solver within 1e-9 across 1, 2
// and 4 in-process workers — and so must the evaluate paths (aggregated
// under pure, vector gather under mixed), including lineups with an offer
// over an item no consumer rated.
func TestClusterMatchesLocal(t *testing.T) {
	w := testMatrix(t, 150, 12, 1)
	wide := withUnratedItem(w)
	for _, strategy := range []bundling.Strategy{bundling.Pure, bundling.Mixed} {
		opts := bundling.Options{Strategy: strategy, Theta: -0.1, StripeSize: 16}
		local, err := bundling.NewSolver(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		localWide, err := bundling.NewSolver(wide, opts)
		if err != nil {
			t.Fatal(err)
		}
		unrated := [][][]int{{{12}}, {{0, 1}, {12}}, {{3, 12}, {4}}}
		if strategy == bundling.Mixed {
			unrated = append(unrated, [][]int{{12}, {11, 12}, {5, 11, 12}})
		}
		for _, workers := range []int{1, 2, 4} {
			_, transports := fleet(workers)
			cs, err := NewSolver(w, opts, Config{Workers: transports})
			if err != nil {
				t.Fatal(err)
			}
			csWide, err := NewSolver(wide, opts, Config{Workers: transports})
			if err != nil {
				t.Fatal(err)
			}
			if cs.Stats() != local.Stats() {
				t.Fatalf("strategy %v workers %d: stats %+v != %+v", strategy, workers, cs.Stats(), local.Stats())
			}
			for _, alg := range bundling.Algorithms() {
				label := alg.Name() + "/" + strategy.String()
				want, err := local.Solve(alg)
				if err != nil {
					t.Fatalf("%s local: %v", label, err)
				}
				got, err := cs.Solve(alg)
				if err != nil {
					t.Fatalf("%s cluster(%d): %v", label, workers, err)
				}
				sameConfig(t, label, got, want)
			}
			sameEvaluates(t, "evaluate/"+strategy.String(), cs, local, evalLineups(strategy))
			sameEvaluates(t, "evaluate-unrated/"+strategy.String(), csWide, localWide, unrated)
			for _, st := range []Stats{cs.ClusterStats(), csWide.ClusterStats()} {
				if st.RemoteCalls == 0 {
					t.Fatalf("strategy %v workers %d: no remote calls issued", strategy, workers)
				}
				if st.LocalFallbacks != 0 {
					t.Fatalf("strategy %v workers %d: %d unexpected local fallbacks", strategy, workers, st.LocalFallbacks)
				}
			}
		}
	}
}

// TestEvaluateRoundsPerLineup: an evaluate costs a fixed number of scatter
// rounds whatever the lineup's size — one RPC per span for every offer's
// maximum and one for every interested offer's histogram under pure
// bundling (the maxima alone when no offer has an interested consumer), one
// per span for every offer's vector under mixed bundling.
func TestEvaluateRoundsPerLineup(t *testing.T) {
	w := withUnratedItem(testMatrix(t, 150, 16, 13)) // item 16 is unrated
	for _, strategy := range []bundling.Strategy{bundling.Pure, bundling.Mixed} {
		_, transports := fleet(2)
		cs, err := NewSolver(w, bundling.Options{Strategy: strategy, StripeSize: 16}, Config{Workers: transports})
		if err != nil {
			t.Fatal(err)
		}
		cs.exec.feeding.Wait()
		spans := int64(cs.ClusterStats().Spans)
		calls := func(offers [][]int) int64 {
			t.Helper()
			before := cs.ClusterStats().RemoteCalls
			if _, err := cs.Evaluate(offers); err != nil {
				t.Fatal(err)
			}
			return cs.ClusterStats().RemoteCalls - before
		}
		want := 2 * spans
		if strategy == bundling.Mixed {
			want = spans
		}
		for n := 1; n <= 8; n++ {
			offers := make([][]int, n)
			for k := range offers {
				offers[k] = []int{2 * k, 2*k + 1}
			}
			if got := calls(offers); got != want {
				t.Fatalf("%v, %d offers: %d RPCs over %d spans, want %d", strategy, n, got, spans, want)
			}
			if got := calls(append(offers, []int{16})); got != want {
				t.Fatalf("%v, %d offers and an unrated one: %d RPCs over %d spans, want %d", strategy, n, got, spans, want)
			}
		}
		if got := calls([][]int{{16}}); got != spans {
			t.Fatalf("%v, an unrated offer alone: %d RPCs, want %d", strategy, got, spans)
		}
		if st := cs.ClusterStats(); st.Refeeds != 0 || st.LocalFallbacks != 0 {
			t.Fatalf("%v: rounds must all be served remotely, stats %+v", strategy, st)
		}
	}
}

// TestEvaluateHistogramBatches: a pure lineup whose histograms exceed
// pricing.MaxHistogramCells prices them in batches under the cap — at 65,536
// levels, 16 interested offers take two histogram rounds — and still
// matches local.
func TestEvaluateHistogramBatches(t *testing.T) {
	w := withUnratedItem(testMatrix(t, 150, 16, 13)) // item 16 is unrated
	opts := bundling.Options{StripeSize: 16, PriceLevels: pricing.MaxLevels}
	local, err := bundling.NewSolver(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, transports := fleet(2)
	cs, err := NewSolver(w, opts, Config{Workers: transports})
	if err != nil {
		t.Fatal(err)
	}
	cs.exec.feeding.Wait()
	offers := make([][]int, w.Items())
	for i := range offers {
		offers[i] = []int{i}
	}
	sameEvaluates(t, "batches", cs, local, [][][]int{offers})
	if st := cs.ClusterStats(); st.RemoteCalls != 3*int64(st.Spans) || st.LocalFallbacks != 0 {
		t.Fatalf("want 3 remote rounds over %d spans, stats %+v", st.Spans, st)
	}
}

// lying wraps a transport and corrupts the shape of its query replies.
type lying struct {
	Transport
	vector func(*VectorResponse)
	stats  func(*StatsResponse)
	hist   func(*HistResponse)
}

func (l *lying) Vector(ctx context.Context, corpus string, req VectorRequest) (VectorResponse, error) {
	r, err := l.Transport.Vector(ctx, corpus, req)
	if err == nil && l.vector != nil {
		l.vector(&r)
	}
	return r, err
}

func (l *lying) Stats(ctx context.Context, corpus string, req StatsRequest) (StatsResponse, error) {
	r, err := l.Transport.Stats(ctx, corpus, req)
	if err == nil && l.stats != nil {
		l.stats(&r)
	}
	return r, err
}

func (l *lying) Hist(ctx context.Context, corpus string, req HistRequest) (HistResponse, error) {
	r, err := l.Transport.Hist(ctx, corpus, req)
	if err == nil && l.hist != nil {
		l.hist(&r)
	}
	return r, err
}

// TestClusterRejectsMalformedReplies: a worker reply of the wrong shape is
// recomputed from the coordinator's local span store before it reaches a
// reduction, so results still match local and the recompute counts as a
// local fallback.
func TestClusterRejectsMalformedReplies(t *testing.T) {
	w := testMatrix(t, 150, 12, 1)
	for _, tc := range []struct {
		name     string
		strategy bundling.Strategy
		lie      lying
	}{
		{"truncated vals", bundling.Mixed, lying{vector: func(r *VectorResponse) {
			if len(r.Vals) > 0 {
				r.Vals = r.Vals[:len(r.Vals)-1]
			}
		}}},
		{"descending ends", bundling.Mixed, lying{vector: func(r *VectorResponse) {
			if len(r.Ends) > 1 && r.Ends[len(r.Ends)-1] > 0 {
				r.Ends[0] = r.Ends[len(r.Ends)-1]
				r.Ends[1] = 0
			}
		}}},
		{"short ends", bundling.Mixed, lying{vector: func(r *VectorResponse) { r.Ends = r.Ends[:len(r.Ends)-1] }}},
		{"short max", bundling.Pure, lying{stats: func(r *StatsResponse) { r.Max = r.Max[:len(r.Max)-1] }}},
		{"short histogram", bundling.Pure, lying{hist: func(r *HistResponse) { r.Counts = r.Counts[:len(r.Counts)-1] }}},
	} {
		opts := bundling.Options{Strategy: tc.strategy, Theta: -0.1, StripeSize: 16}
		local, err := bundling.NewSolver(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, transports := fleet(2)
		for i := range transports {
			lie := tc.lie
			lie.Transport = transports[i]
			transports[i] = &lie
		}
		cs, err := NewSolver(w, opts, Config{Workers: transports})
		if err != nil {
			t.Fatal(err)
		}
		sameEvaluates(t, tc.name, cs, local, evalLineups(tc.strategy))
		if st := cs.ClusterStats(); st.LocalFallbacks == 0 {
			t.Fatalf("%s: malformed replies were not recomputed locally, stats %+v", tc.name, st)
		}
	}
}

// TestClusterReupload: a corpus re-upload under the same worker key (new
// snapshot version) must invalidate the workers' spans — the stale spans
// are re-fed, and results match a fresh local solver on the new corpus.
func TestClusterReupload(t *testing.T) {
	w := testMatrix(t, 120, 10, 2)
	workers, transports := fleet(2)
	opts := bundling.Options{StripeSize: 16}
	cfg := Config{Workers: transports, Corpus: "shared"}

	s1, err := NewSolver(w, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.exec.feeding.Wait()
	if _, err := s1.Solve(bundling.Matching()); err != nil {
		t.Fatal(err)
	}
	v1 := s1.Stats().Version

	// The re-uploaded corpus: same dimensions, different entries and a
	// bumped snapshot version.
	w.MustSet(0, 0, 42)
	w.MustSet(1, 1, 17)
	s2, err := NewSolver(w, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2.exec.feeding.Wait()
	if s2.Stats().Version == v1 {
		t.Fatal("re-upload did not bump the snapshot version")
	}
	local, err := bundling.NewSolver(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Solve(bundling.Greedy())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Solve(bundling.Greedy())
	if err != nil {
		t.Fatal(err)
	}
	sameConfig(t, "reupload", got, want)
	if st := s2.ClusterStats(); st.LocalFallbacks != 0 {
		t.Fatalf("re-fed spans should serve remotely, got %d fallbacks", st.LocalFallbacks)
	}
	// Every worker's health must now report the new session's snapshot
	// identity only (the nonce shipped on every RPC), never s1's.
	for i, wk := range workers {
		for _, sp := range wk.Health().Spans {
			if !strings.HasPrefix(sp.Corpus, "shared/") {
				continue
			}
			if sp.Version == s1.exec.version {
				t.Fatalf("worker %d still holds the replaced session's span", i)
			}
			if sp.Version != s2.exec.version {
				t.Fatalf("worker %d holds version %d, want %d", i, sp.Version, s2.exec.version)
			}
		}
	}
}

// flaky wraps a transport and fails every data-plane call while tripped.
type flaky struct {
	Transport
	down atomic.Bool
}

var errDown = errors.New("worker down")

func (f *flaky) Assign(ctx context.Context, corpus string, req *AssignRequest) error {
	if f.down.Load() {
		return errDown
	}
	return f.Transport.Assign(ctx, corpus, req)
}

func (f *flaky) Vector(ctx context.Context, corpus string, req VectorRequest) (VectorResponse, error) {
	if f.down.Load() {
		return VectorResponse{}, errDown
	}
	return f.Transport.Vector(ctx, corpus, req)
}

func (f *flaky) Union(ctx context.Context, corpus string, req UnionRequest) (VectorResponse, error) {
	if f.down.Load() {
		return VectorResponse{}, errDown
	}
	return f.Transport.Union(ctx, corpus, req)
}

func (f *flaky) Stats(ctx context.Context, corpus string, req StatsRequest) (StatsResponse, error) {
	if f.down.Load() {
		return StatsResponse{}, errDown
	}
	return f.Transport.Stats(ctx, corpus, req)
}

func (f *flaky) Hist(ctx context.Context, corpus string, req HistRequest) (HistResponse, error) {
	if f.down.Load() {
		return HistResponse{}, errDown
	}
	return f.Transport.Hist(ctx, corpus, req)
}

func (f *flaky) Health(ctx context.Context) (WorkerHealth, error) {
	if f.down.Load() {
		return WorkerHealth{}, errDown
	}
	return f.Transport.Health(ctx)
}

// TestClusterLazyFeed: a worker that was unreachable while the session was
// created (missing the span pre-feed) comes back up; the first request
// against it answers ErrSpan, gets the span re-fed, and serves — no local
// fallback involved.
func TestClusterLazyFeed(t *testing.T) {
	w := testMatrix(t, 96, 10, 6)
	_, transports := fleet(1)
	f0 := &flaky{Transport: transports[0]}
	f0.down.Store(true) // down during NewSolver: the pre-feed fails
	opts := bundling.Options{StripeSize: 16}
	cs, err := NewSolver(w, opts, Config{Workers: []Transport{f0}})
	if err != nil {
		t.Fatal(err)
	}
	cs.exec.feeding.Wait()   // the eager feed fails against the down worker
	st0 := cs.ClusterStats() // construction's traffic; measured as a delta below
	f0.down.Store(false)     // worker restarts, empty

	local, err := bundling.NewSolver(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Evaluate(evalOffers())
	if err != nil {
		t.Fatal(err)
	}
	got, err := cs.Evaluate(evalOffers())
	if err != nil {
		t.Fatal(err)
	}
	sameConfig(t, "lazyfeed", got, want)
	st := cs.ClusterStats()
	if st.Refeeds == st0.Refeeds {
		t.Fatalf("expected a re-feed for the empty worker, stats %+v", st)
	}
	if st.LocalFallbacks != st0.LocalFallbacks {
		t.Fatalf("re-fed worker should serve remotely, stats %+v (was %+v)", st, st0)
	}
}

// TestClusterReplicaRetry: with one worker down, an evaluate's requests
// for its spans are served by the replica worker (fed on demand), still
// matching local results, with no local fallback needed; a solve, which
// sends no RPC, matches local too.
func TestClusterReplicaRetry(t *testing.T) {
	w := testMatrix(t, 140, 10, 3)
	_, transports := fleet(2)
	f0 := &flaky{Transport: transports[0]}
	opts := bundling.Options{StripeSize: 16}
	cs, err := NewSolver(w, opts, Config{Workers: []Transport{f0, transports[1]}})
	if err != nil {
		t.Fatal(err)
	}
	cs.exec.feeding.Wait()
	f0.down.Store(true)

	local, err := bundling.NewSolver(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Solve(bundling.Matching())
	if err != nil {
		t.Fatal(err)
	}
	got, err := cs.Solve(bundling.Matching())
	if err != nil {
		t.Fatal(err)
	}
	sameConfig(t, "replica/solve", got, want)
	sameEvaluates(t, "replica/evaluate", cs, local, [][][]int{evalOffers()})
	st := cs.ClusterStats()
	if st.ReplicaRetries == 0 {
		t.Fatal("expected replica retries while worker 0 is down")
	}
	if st.LocalFallbacks != 0 {
		t.Fatalf("replica should cover worker 0; got %d local fallbacks", st.LocalFallbacks)
	}
}

// TestClusterLocalFallback: with the whole fleet down, every span degrades
// to the coordinator's local replica and results stay correct.
func TestClusterLocalFallback(t *testing.T) {
	w := testMatrix(t, 130, 10, 4)
	_, transports := fleet(1)
	f0 := &flaky{Transport: transports[0]}
	opts := bundling.Options{Strategy: bundling.Mixed, StripeSize: 16}
	cs, err := NewSolver(w, opts, Config{Workers: []Transport{f0}})
	if err != nil {
		t.Fatal(err)
	}
	cs.exec.feeding.Wait()
	f0.down.Store(true)

	local, err := bundling.NewSolver(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []bundling.Algorithm{bundling.Greedy(), bundling.FreqItemset(0)} {
		want, err := local.Solve(alg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cs.Solve(alg)
		if err != nil {
			t.Fatal(err)
		}
		sameConfig(t, "fallback/"+alg.Name(), got, want)
	}
	want, err := local.Evaluate(evalOffers())
	if err != nil {
		t.Fatal(err)
	}
	got, err := cs.Evaluate(evalOffers())
	if err != nil {
		t.Fatal(err)
	}
	sameConfig(t, "fallback/evaluate", got, want)
	if st := cs.ClusterStats(); st.LocalFallbacks == 0 {
		t.Fatal("expected local fallbacks with the fleet down")
	}
}

// TestClusterSharedKeyDistinctCorpora: two different corpora with
// identical matrix mutation counters under the same caller-chosen Corpus
// key must never alias. The second session's pre-feed fails (worker down),
// the worker comes back still holding the first corpus's span — and the
// session nonce check forces a re-feed instead of serving the old data.
func TestClusterSharedKeyDistinctCorpora(t *testing.T) {
	build := func(scale float64) *bundling.Matrix {
		w := bundling.NewMatrix(96, 8)
		for u := 0; u < 96; u++ { // identical Set counts ⇒ identical versions
			w.MustSet(u, u%8, scale*float64(u%13+1))
			w.MustSet(u, (u+3)%8, scale*float64(u%7+2))
		}
		return w
	}
	wA, wB := build(1), build(3)
	if wA.Version() != wB.Version() {
		t.Fatalf("test premise broken: versions %d != %d", wA.Version(), wB.Version())
	}
	_, transports := fleet(1)
	f0 := &flaky{Transport: transports[0]}
	opts := bundling.Options{StripeSize: 16}
	cfg := Config{Workers: []Transport{f0}, Corpus: "shared"}

	sA, err := NewSolver(wA, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sA.exec.feeding.Wait()
	if _, err := sA.Solve(bundling.Matching()); err != nil {
		t.Fatal(err) // worker now holds corpus A's span under "shared/0"
	}
	f0.down.Store(true) // B's pre-feed fails
	sB, err := NewSolver(wB, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sB.exec.feeding.Wait() // the eager feed fails against the down worker
	f0.down.Store(false)   // worker back, still holding A's span

	local, err := bundling.NewSolver(wB, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Evaluate([][]int{{0, 1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sB.Evaluate([][]int{{0, 1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	sameConfig(t, "shared-key", got, want)
	if st := sB.ClusterStats(); st.Refeeds == 0 {
		t.Fatalf("expected the nonce mismatch to force a re-feed, stats %+v", st)
	}
}

// TestSolverCloseDropsSpans: Close must release the session's spans on
// every worker that may hold one, so replaced/evicted serving sessions do
// not pin fleet memory.
func TestSolverCloseDropsSpans(t *testing.T) {
	w := testMatrix(t, 120, 10, 12)
	workers, transports := fleet(2)
	cs, err := NewSolver(w, bundling.Options{StripeSize: 16}, Config{Workers: transports})
	if err != nil {
		t.Fatal(err)
	}
	cs.exec.feeding.Wait()
	if _, err := cs.Solve(bundling.Matching()); err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, wk := range workers {
		held += len(wk.Health().Spans)
	}
	if held == 0 {
		t.Fatal("no spans assigned before close")
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	for i, wk := range workers {
		if n := len(wk.Health().Spans); n != 0 {
			t.Fatalf("worker %d still holds %d spans after close", i, n)
		}
	}
}

// TestReadyProbe: the readiness gate errors exactly while a worker is
// unreachable.
func TestReadyProbe(t *testing.T) {
	_, transports := fleet(2)
	f0 := &flaky{Transport: transports[0]}
	ready := Ready([]Transport{f0, transports[1]}, 0)
	if err := ready(); err != nil {
		t.Fatalf("healthy fleet reported not ready: %v", err)
	}
	f0.down.Store(true)
	if err := ready(); err == nil {
		t.Fatal("down worker not reported")
	}
	f0.down.Store(false)
	if err := ready(); err != nil {
		t.Fatalf("recovered fleet reported not ready: %v", err)
	}
}

// TestClusterConcurrentUse: concurrent solves and evaluates on one
// coordinator must race-cleanly produce correct results (run under -race in
// CI).
func TestClusterConcurrentUse(t *testing.T) {
	w := testMatrix(t, 120, 10, 5)
	_, transports := fleet(2)
	opts := bundling.Options{StripeSize: 16}
	cs, err := NewSolver(w, opts, Config{Workers: transports})
	if err != nil {
		t.Fatal(err)
	}
	local, err := bundling.NewSolver(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantSolve, err := local.Solve(bundling.Matching())
	if err != nil {
		t.Fatal(err)
	}
	wantEval, err := local.Evaluate(evalOffers())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			if g%2 == 0 {
				got, err := cs.Solve(bundling.Matching())
				if err == nil && math.Abs(got.Revenue-wantSolve.Revenue) > 1e-9*(1+wantSolve.Revenue) {
					err = errors.New("solve revenue mismatch")
				}
				done <- err
				return
			}
			got, err := cs.Evaluate(evalOffers())
			if err == nil && math.Abs(got.Revenue-wantEval.Revenue) > 1e-9*(1+wantEval.Revenue) {
				err = errors.New("evaluate revenue mismatch")
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
