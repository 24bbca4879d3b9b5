package cluster

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"time"
)

// ErrBreakerOpen is returned by a Breaker transport when the worker's
// circuit is open: the call was rejected before dialing. It is distinct
// from ErrSpan on purpose — an open breaker must not trigger the span
// re-feed ladder (the worker is unreachable, not stale); the coordinator's
// retry ladder moves straight on to the replica or the local span store.
var ErrBreakerOpen = errors.New("cluster: circuit breaker open")

// BreakerState is a circuit breaker's health state.
type BreakerState int

const (
	// BreakerClosed: the worker is healthy; calls pass through.
	BreakerClosed BreakerState = iota
	// BreakerOpen: recent calls failed beyond the threshold; calls are
	// rejected without dialing until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; a single probe call is in
	// flight to decide between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// BreakerConfig tunes a worker circuit breaker. The zero value selects the
// defaults noted per field.
type BreakerConfig struct {
	// Window is the sliding sample window: the trip decision looks at the
	// outcomes of the last Window recorded calls (0 = 20).
	Window int
	// FailureThreshold is the failure fraction within the window at or
	// above which the breaker trips (0 = 0.5).
	FailureThreshold float64
	// MinSamples is the minimum number of recorded calls before the
	// breaker may trip, so one early failure cannot open it (0 = 5).
	MinSamples int
	// Cooldown is the first open period. Consecutive re-opens double it —
	// with ±25% jitter so probes across breakers de-synchronize — up to
	// MaxCooldown; a successful probe resets the ladder (0 = 1s).
	Cooldown time.Duration
	// MaxCooldown caps the exponential cooldown (0 = 30s).
	MaxCooldown time.Duration
	// Seed seeds the jitter RNG; 0 draws a random seed. Tests pin it for
	// deterministic cooldown schedules.
	Seed int64
	// now is the test clock hook (nil = time.Now).
	now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.MaxCooldown <= 0 {
		c.MaxCooldown = 30 * time.Second
	}
	if c.MaxCooldown < c.Cooldown {
		c.MaxCooldown = c.Cooldown
	}
	if c.Seed == 0 {
		var b [8]byte
		if _, err := crand.Read(b[:]); err == nil {
			c.Seed = int64(binary.LittleEndian.Uint64(b[:]) | 1)
		} else {
			c.Seed = 1
		}
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// BreakerSnapshot is one breaker's observable state, surfaced on /healthz
// and as Prometheus gauges.
type BreakerSnapshot struct {
	Addr        string  `json:"addr"`
	State       string  `json:"state"`
	Failures    int     `json:"window_failures"`
	Samples     int     `json:"window_samples"`
	FailureRate float64 `json:"failure_rate"`
	Trips       int64   `json:"trips"`
	Rejected    int64   `json:"rejected"`
	// RetryInMs is how long until the next probe is allowed (0 when the
	// breaker is not open).
	RetryInMs int64 `json:"retry_in_ms,omitempty"`
}

// Breaker wraps a worker Transport with a circuit breaker: a sliding
// window of call outcomes trips it open when the worker is failing, open
// calls are rejected with ErrBreakerOpen before dialing (so the
// coordinator's retry ladder skips straight to the replica or local
// fallback instead of waiting out a timeout per request), and after an
// exponentially backed-off cooldown a single half-open probe decides
// whether to close again.
//
// Outcome classification: nil and ErrSpan results count as successes (a
// stale-span rejection proves the worker is alive and answering); a
// canceled caller context records nothing (the caller gave up — that says
// nothing about the worker); every other error, including deadline
// expiry, counts as a failure. Health probes pass through unrecorded and
// ungated, so readiness checks keep observing the real worker while the
// breaker is open.
//
// A Breaker is safe for concurrent use. Wrap each fleet transport once at
// daemon startup (see cmd/bundled) so every session shares one health
// view per worker.
type Breaker struct {
	*guarded
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	window   []bool // ring buffer of outcomes, true = failure
	size     int    // samples recorded, ≤ len(window)
	head     int    // next write position
	fails    int    // failures currently in the window
	openTill time.Time
	reopens  int   // consecutive re-opens, drives the cooldown ladder
	probing  bool  // a half-open probe is in flight
	trips    int64 // lifetime open transitions
	rejected int64 // lifetime ErrBreakerOpen rejections
	rng      *mrand.Rand
}

// NewBreaker wraps t with a circuit breaker.
func NewBreaker(t Transport, cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	b := &Breaker{
		cfg:    cfg,
		window: make([]bool, cfg.Window),
		rng:    mrand.New(mrand.NewSource(cfg.Seed)),
	}
	b.guarded = wrap(t, b.guard)
	return b
}

// allow decides whether a call may proceed, transitioning open → half-open
// when the cooldown has elapsed.
func (b *Breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.now().Before(b.openTill) {
			b.rejected++
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // BreakerHalfOpen
		if b.probing {
			b.rejected++
			return false
		}
		b.probing = true
		return true
	}
}

// record classifies one call outcome. ctx is the caller's context, used to
// leave canceled calls unrecorded.
func (b *Breaker) record(ctx context.Context, err error) {
	failure := err != nil && !errors.Is(err, ErrSpan)
	if failure && ctx.Err() != nil && !errors.Is(err, context.DeadlineExceeded) {
		// The caller went away mid-call; the outcome says nothing about the
		// worker. A deadline expiry still counts — a worker that cannot
		// answer within the RPC budget is failing for the ladder's purposes.
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
		if failure {
			b.trip()
		} else {
			b.reset()
		}
		return
	}
	if b.state == BreakerOpen {
		// A straggler from before the trip; the window was cleared.
		return
	}
	if b.size == len(b.window) {
		if b.window[b.head] {
			b.fails--
		}
	} else {
		b.size++
	}
	b.window[b.head] = failure
	if failure {
		b.fails++
	}
	b.head = (b.head + 1) % len(b.window)
	if failure && b.size >= b.cfg.MinSamples &&
		float64(b.fails)/float64(b.size) >= b.cfg.FailureThreshold {
		b.trip()
	}
}

// trip opens the breaker (caller holds mu).
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.trips++
	d := b.cfg.Cooldown
	for i := 0; i < b.reopens && d < b.cfg.MaxCooldown; i++ {
		d *= 2
	}
	if d > b.cfg.MaxCooldown {
		d = b.cfg.MaxCooldown
	}
	// ±25% jitter: breakers tripped by the same outage probe staggered.
	d += time.Duration(b.rng.Int63n(int64(d)/2+1)) - d/4
	b.openTill = b.cfg.now().Add(d)
	b.reopens++
	// Clear the window: after recovery the worker starts fresh.
	b.size, b.head, b.fails = 0, 0, 0
}

// reset closes the breaker after a successful probe (caller holds mu).
func (b *Breaker) reset() {
	b.state = BreakerClosed
	b.reopens = 0
	b.size, b.head, b.fails = 0, 0, 0
}

// State returns the current state, applying the open → half-open clock
// transition so callers never observe a stale "open" past its cooldown.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && !b.cfg.now().Before(b.openTill) {
		return BreakerHalfOpen
	}
	return b.state
}

// Snapshot reports the breaker's observable state for health endpoints and
// metrics.
func (b *Breaker) Snapshot() BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BreakerSnapshot{
		Addr:     b.Addr(),
		State:    b.state.String(),
		Failures: b.fails,
		Samples:  b.size,
		Trips:    b.trips,
		Rejected: b.rejected,
	}
	if b.size > 0 {
		s.FailureRate = float64(b.fails) / float64(b.size)
	}
	if b.state == BreakerOpen {
		if rem := b.openTill.Sub(b.cfg.now()); rem > 0 {
			s.RetryInMs = int64(rem / time.Millisecond)
		} else {
			s.State = BreakerHalfOpen.String()
		}
	}
	return s
}

// guard gates and records one RPC. Health passes through unrecorded and
// ungated: readiness probes must keep observing the real worker while the
// breaker rejects work, or an open breaker could never be distinguished from
// a dead worker on /healthz.
func (b *Breaker) guard(ctx context.Context, op string, next func(context.Context) error) error {
	if op == "health" {
		return next(ctx)
	}
	if !b.allow() {
		return fmt.Errorf("%w: %s", ErrBreakerOpen, b.Addr())
	}
	err := next(ctx)
	b.record(ctx, err)
	return err
}

// WrapBreakers wraps every transport in ts with its own breaker under one
// shared config, returning the wrapped fleet and the breakers for health
// and metrics surfacing. The daemon calls this once at startup so all
// sessions share one health view per worker.
func WrapBreakers(ts []Transport, cfg BreakerConfig) ([]Transport, []*Breaker) {
	out := make([]Transport, len(ts))
	bs := make([]*Breaker, len(ts))
	for i, t := range ts {
		b := NewBreaker(t, cfg)
		out[i] = b
		bs[i] = b
	}
	return out, bs
}
