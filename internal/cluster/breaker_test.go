package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bundling"
)

// errTransport is a stub worker whose query calls fail (or succeed) on
// demand, counting every call that reaches it.
type errTransport struct {
	name  string
	fail  atomic.Bool
	calls atomic.Int64
}

func (e *errTransport) op() error {
	e.calls.Add(1)
	if e.fail.Load() {
		return fmt.Errorf("%s: connection refused", e.name)
	}
	return nil
}

func (e *errTransport) Assign(context.Context, string, *AssignRequest) error { return e.op() }
func (e *errTransport) Drop(context.Context, string) error                   { return e.op() }
func (e *errTransport) Vector(context.Context, string, VectorRequest) (VectorResponse, error) {
	return VectorResponse{}, e.op()
}
func (e *errTransport) Union(context.Context, string, UnionRequest) (VectorResponse, error) {
	return VectorResponse{}, e.op()
}
func (e *errTransport) Stats(context.Context, string, StatsRequest) (StatsResponse, error) {
	return StatsResponse{}, e.op()
}
func (e *errTransport) Hist(context.Context, string, HistRequest) (HistResponse, error) {
	return HistResponse{}, e.op()
}
func (e *errTransport) Health(context.Context) (WorkerHealth, error) {
	e.calls.Add(1)
	return WorkerHealth{}, nil
}
func (e *errTransport) Addr() string { return e.name }

// breakerAt builds a breaker over t with a controllable clock.
func breakerAt(t Transport, clock *time.Time, cfg BreakerConfig) *Breaker {
	cfg.now = func() time.Time { return *clock }
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	return NewBreaker(t, cfg)
}

// TestBreakerTripsAndRejects: enough failures open the breaker; open calls
// are rejected with ErrBreakerOpen without reaching the worker.
func TestBreakerTripsAndRejects(t *testing.T) {
	tr := &errTransport{name: "w0"}
	tr.fail.Store(true)
	clock := time.Unix(0, 0)
	b := breakerAt(tr, &clock, BreakerConfig{MinSamples: 3, Window: 10})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := b.Vector(ctx, "c", VectorRequest{}); err == nil {
			t.Fatal("stub should fail")
		}
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after %d failures = %v, want open", 3, got)
	}
	before := tr.calls.Load()
	_, err := b.Vector(ctx, "c", VectorRequest{})
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker error = %v, want ErrBreakerOpen", err)
	}
	if tr.calls.Load() != before {
		t.Fatal("open breaker still dialed the worker")
	}
	snap := b.Snapshot()
	if snap.State != "open" || snap.Trips != 1 || snap.Rejected == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.RetryInMs <= 0 {
		t.Fatalf("open snapshot retry_in_ms = %d, want > 0", snap.RetryInMs)
	}
}

// TestBreakerProbesAndRecovers: after the cooldown one probe goes through;
// success closes the breaker, and the cooldown ladder resets.
func TestBreakerProbesAndRecovers(t *testing.T) {
	tr := &errTransport{name: "w0"}
	tr.fail.Store(true)
	clock := time.Unix(0, 0)
	b := breakerAt(tr, &clock, BreakerConfig{MinSamples: 2, Window: 4, Cooldown: time.Second, MaxCooldown: time.Minute})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		_, _ = b.Stats(ctx, "c", StatsRequest{})
	}
	if b.State() != BreakerOpen {
		t.Fatal("breaker should be open")
	}
	// Still inside the cooldown (jitter keeps it within [0.75s, 1.25s]).
	clock = clock.Add(500 * time.Millisecond)
	if _, err := b.Stats(ctx, "c", StatsRequest{}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("mid-cooldown error = %v, want ErrBreakerOpen", err)
	}
	// Past the worst-case jittered cooldown: the next call is the probe.
	clock = clock.Add(time.Second)
	tr.fail.Store(false)
	before := tr.calls.Load()
	if _, err := b.Stats(ctx, "c", StatsRequest{}); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if tr.calls.Load() != before+1 {
		t.Fatal("probe did not reach the worker")
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
}

// TestBreakerReopensWithBackoff: a failing probe re-opens with a doubled
// cooldown.
func TestBreakerReopensWithBackoff(t *testing.T) {
	tr := &errTransport{name: "w0"}
	tr.fail.Store(true)
	clock := time.Unix(0, 0)
	b := breakerAt(tr, &clock, BreakerConfig{MinSamples: 2, Window: 4, Cooldown: time.Second, MaxCooldown: time.Minute})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		_, _ = b.Hist(ctx, "c", HistRequest{})
	}
	first := b.Snapshot().RetryInMs
	clock = clock.Add(2 * time.Second) // past the first cooldown
	_, _ = b.Hist(ctx, "c", HistRequest{})
	if b.State() != BreakerOpen {
		t.Fatal("failed probe should re-open")
	}
	second := b.Snapshot().RetryInMs
	// First cooldown ∈ [750, 1250]ms, second ∈ [1500, 2500]ms: doubled
	// modulo jitter.
	if second <= first {
		t.Fatalf("re-open cooldown %dms not longer than first %dms", second, first)
	}
	if got := b.Snapshot().Trips; got != 2 {
		t.Fatalf("trips = %d, want 2", got)
	}
}

// TestBreakerSpanRejectionIsSuccess: ErrSpan proves the worker is alive; a
// run of stale-span rejections must not trip the breaker.
func TestBreakerSpanRejectionIsSuccess(t *testing.T) {
	clock := time.Unix(0, 0)
	b := breakerAt(&staleTransport{}, &clock, BreakerConfig{MinSamples: 2, Window: 4})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := b.Vector(ctx, "c", VectorRequest{}); !errors.Is(err, ErrSpan) {
			t.Fatalf("err = %v, want ErrSpan", err)
		}
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after stale-span run = %v, want closed", got)
	}
}

// staleTransport always reports the span missing.
type staleTransport struct{ errTransport }

func (s *staleTransport) Vector(context.Context, string, VectorRequest) (VectorResponse, error) {
	return VectorResponse{}, fmt.Errorf("%w: stub", ErrSpan)
}

// TestBreakerCanceledCallUnrecorded: a caller hanging up mid-call says
// nothing about the worker and must not move the window.
func TestBreakerCanceledCallUnrecorded(t *testing.T) {
	tr := &errTransport{name: "w0"}
	tr.fail.Store(true)
	clock := time.Unix(0, 0)
	b := breakerAt(tr, &clock, BreakerConfig{MinSamples: 2, Window: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 10; i++ {
		_, _ = b.Union(ctx, "c", UnionRequest{})
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after canceled calls = %v, want closed", got)
	}
	if got := b.Snapshot().Samples; got != 0 {
		t.Fatalf("window samples = %d, want 0", got)
	}
}

// TestBreakerHealthUngated: health probes bypass an open breaker so
// readiness keeps observing the real worker.
func TestBreakerHealthUngated(t *testing.T) {
	tr := &errTransport{name: "w0"}
	tr.fail.Store(true)
	clock := time.Unix(0, 0)
	b := breakerAt(tr, &clock, BreakerConfig{MinSamples: 2, Window: 4})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		_, _ = b.Vector(ctx, "c", VectorRequest{})
	}
	if b.State() != BreakerOpen {
		t.Fatal("breaker should be open")
	}
	before := tr.calls.Load()
	if _, err := b.Health(ctx); err != nil {
		t.Fatalf("health through open breaker: %v", err)
	}
	if tr.calls.Load() != before+1 {
		t.Fatal("health probe did not reach the worker")
	}
}

// TestBreakerConcurrent hammers one breaker from many goroutines while the
// worker flaps, under -race; the assertions are "no race, no deadlock, and
// the breaker ends closed after the worker recovers".
func TestBreakerConcurrent(t *testing.T) {
	tr := &errTransport{name: "w0"}
	b := NewBreaker(tr, BreakerConfig{MinSamples: 4, Window: 16, Cooldown: time.Millisecond, MaxCooldown: 4 * time.Millisecond, Seed: 7})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.fail.Store(i < 100 && i%3 != 0)
				_, _ = b.Vector(ctx, "c", VectorRequest{})
				_ = b.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	tr.fail.Store(false)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := b.Vector(ctx, "c", VectorRequest{}); err == nil && b.State() == BreakerClosed {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("breaker did not close after recovery; state=%v snapshot=%+v", b.State(), b.Snapshot())
}

// TestBreakerSkipsToReplica: an open primary breaker must not consume the
// request timeout — the coordinator's ladder counts the skip and serves
// from the replica, so results stay exact.
func TestBreakerSkipsToReplica(t *testing.T) {
	w := testMatrix(t, 120, 10, 5)
	opts := bundling.Options{StripeSize: 16}
	local, err := bundling.NewSolver(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, transports := fleet(2)
	// Wrap worker 0 in a breaker and trip it by hand.
	b := NewBreaker(transports[0], BreakerConfig{MinSamples: 1, Window: 2, Cooldown: time.Hour, MaxCooldown: time.Hour, Seed: 3})
	b.mu.Lock()
	b.trip()
	b.mu.Unlock()
	cs, err := NewSolver(w, opts, Config{Workers: []Transport{b, transports[1]}})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	for _, alg := range bundling.Algorithms() {
		want, err := local.Solve(alg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cs.Solve(alg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		sameConfig(t, alg.Name()+"/breaker-open", got, want)
	}
	st := cs.ClusterStats()
	if st.BreakerSkips == 0 {
		t.Fatal("no breaker skips counted")
	}
	if st.ReplicaRetries == 0 {
		t.Fatal("no replica retries counted")
	}
}
