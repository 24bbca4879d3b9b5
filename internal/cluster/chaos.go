package cluster

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrChaos marks an injected fault, so tests and the bench harness can
// tell injected failures from real ones.
var ErrChaos = errors.New("cluster: injected fault")

// ChaosConfig sets a ChaosTransport's fault mix. All rates are
// probabilities in [0,1], rolled independently per call from the seeded
// RNG; the zero value injects nothing and passes every call through.
type ChaosConfig struct {
	// Seed seeds the fault RNG (0 = 1). Identical seeds over identical
	// call sequences reproduce identical fault schedules.
	Seed int64
	// Latency is the upper bound of uniformly drawn per-call added delay.
	Latency time.Duration
	// ErrorRate injects transport errors (wrapping ErrChaos): the RPC
	// fails as if the connection broke.
	ErrorRate float64
	// StaleRate injects span-staleness rejections (wrapping ErrSpan) on
	// query RPCs, exercising the re-feed ladder. Assign/Delta/Drop are
	// exempt — a feed cannot be "stale".
	StaleRate float64
}

// ChaosTransport wraps a Transport with deterministic fault injection for
// the chaos test-suite and cmd/bundlebench -exp chaos: seeded random added
// latency, injected errors, injected stale-span rejections, and two
// switchable whole-worker conditions — a partition (every call fails
// fast, health included) and a blackhole (every call hangs until its
// context expires, modeling a SIGSTOPped or silently dropping worker).
//
// Faults are injected before the real call, so an injected fault never
// consumes worker capacity. All methods are safe for concurrent use;
// condition switches apply to calls that start after the switch.
type ChaosTransport struct {
	*guarded

	mu  sync.Mutex
	rng *mrand.Rand
	cfg ChaosConfig

	partitioned atomic.Bool
	blackholed  atomic.Bool

	injectedErrors  atomic.Int64
	injectedStale   atomic.Int64
	injectedLatency atomic.Int64 // calls that were delayed
}

// NewChaos wraps t with fault injection under cfg.
func NewChaos(t Transport, cfg ChaosConfig) *ChaosTransport {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c := &ChaosTransport{rng: mrand.New(mrand.NewSource(cfg.Seed)), cfg: cfg}
	c.guarded = wrap(t, c.guard)
	return c
}

// Partition switches the full-partition condition: when on, every call —
// health probes included — fails fast with an ErrChaos-wrapped error.
func (c *ChaosTransport) Partition(on bool) { c.partitioned.Store(on) }

// Blackhole switches the blackhole condition: when on, every call hangs
// until its context is done and returns the context's error, like a
// worker that accepts connections but never answers.
func (c *ChaosTransport) Blackhole(on bool) { c.blackholed.Store(on) }

// InjectedFaults reports how many errors and stale rejections were
// injected and how many calls were delayed.
func (c *ChaosTransport) InjectedFaults() (errors, stale, delayed int64) {
	return c.injectedErrors.Load(), c.injectedStale.Load(), c.injectedLatency.Load()
}

// roll draws this call's fault decisions in one locked section, keeping
// the schedule deterministic under a fixed seed and call order.
func (c *ChaosTransport) roll(query bool) (delay time.Duration, fail, stale bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.Latency > 0 {
		delay = time.Duration(c.rng.Int63n(int64(c.cfg.Latency) + 1))
	}
	if c.cfg.ErrorRate > 0 && c.rng.Float64() < c.cfg.ErrorRate {
		fail = true
	}
	if query && c.cfg.StaleRate > 0 && c.rng.Float64() < c.cfg.StaleRate {
		stale = true
	}
	return delay, fail, stale
}

// guard applies the pre-call fault schedule; an injected fault aborts the
// call before it reaches the worker. Health is subject to partitions and
// blackholes (a probe cannot reach a partitioned worker) but exempt from the
// random error/stale/latency mix, so readiness flaps only on whole-worker
// conditions. Stale-span rejections are injected on query RPCs only.
func (c *ChaosTransport) guard(ctx context.Context, op string, next func(context.Context) error) error {
	if c.partitioned.Load() {
		if op != "health" {
			c.injectedErrors.Add(1)
		}
		return fmt.Errorf("%w: %s: partitioned", ErrChaos, c.Addr())
	}
	if c.blackholed.Load() {
		<-ctx.Done()
		return ctx.Err()
	}
	if op == "health" {
		return next(ctx)
	}
	delay, fail, stale := c.roll(op == "vector" || op == "union" || op == "stats" || op == "hist")
	if delay > 0 {
		c.injectedLatency.Add(1)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if fail {
		c.injectedErrors.Add(1)
		return fmt.Errorf("%w: %s: injected error", ErrChaos, c.Addr())
	}
	if stale {
		c.injectedStale.Add(1)
		return fmt.Errorf("%w: %s: injected stale span", ErrSpan, c.Addr())
	}
	return next(ctx)
}
