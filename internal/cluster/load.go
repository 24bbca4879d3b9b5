package cluster

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// ewmaAlpha weights the latency EWMA: each new sample contributes 20%, so
// the estimate tracks load shifts within a handful of RPCs without jumping
// on every outlier.
const ewmaAlpha = 0.2

// WorkerLoad is the coordinator's locally observed load on one worker,
// accumulated across every session by the load-recording transport wrapper:
// RPC volume per operation, the outcome mix (errors, breaker rejections),
// and a latency EWMA over successful calls. All fields are atomics; one
// value serves the scatter/gather fan-out of any number of requests.
type WorkerLoad struct {
	addr string

	rpcs         atomic.Int64
	errors       atomic.Int64
	breakerSkips atomic.Int64
	ewmaMicros   atomic.Uint64 // float64 bits; 0 = no successful sample yet

	mu  sync.Mutex
	ops map[string]int64
}

// Addr identifies the worker the load belongs to.
func (l *WorkerLoad) Addr() string { return l.addr }

// record accounts one RPC outcome.
func (l *WorkerLoad) record(op string, d time.Duration, err error) {
	l.rpcs.Add(1)
	l.mu.Lock()
	l.ops[op]++
	l.mu.Unlock()
	switch {
	case err == nil:
		l.observeLatency(d)
	case errors.Is(err, ErrBreakerOpen):
		l.breakerSkips.Add(1)
	case errors.Is(err, ErrSpan):
		// A span rejection is protocol flow (the caller re-feeds), not a
		// worker fault; it counts as an RPC but not as an error, and its
		// latency is real worker time.
		l.observeLatency(d)
	default:
		l.errors.Add(1)
	}
}

// observeLatency folds one sample into the EWMA with a CAS loop, so the
// fan-out goroutines never serialize on a mutex for the hot path.
func (l *WorkerLoad) observeLatency(d time.Duration) {
	us := float64(d.Microseconds())
	if us <= 0 {
		us = float64(d.Nanoseconds()) / 1e3
	}
	for {
		old := l.ewmaMicros.Load()
		prev := math.Float64frombits(old)
		next := us
		if old != 0 {
			next = prev + ewmaAlpha*(us-prev)
		}
		if l.ewmaMicros.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// LoadSnapshot is one worker's observed-load view at a point in time.
type LoadSnapshot struct {
	Addr          string
	RPCs          int64
	Errors        int64
	BreakerSkips  int64
	LatencyEWMAMs float64
	Ops           map[string]int64
}

// Snapshot returns the current load view.
func (l *WorkerLoad) Snapshot() LoadSnapshot {
	s := LoadSnapshot{
		Addr:          l.addr,
		RPCs:          l.rpcs.Load(),
		Errors:        l.errors.Load(),
		BreakerSkips:  l.breakerSkips.Load(),
		LatencyEWMAMs: math.Float64frombits(l.ewmaMicros.Load()) / 1e3,
	}
	l.mu.Lock()
	s.Ops = make(map[string]int64, len(l.ops))
	for op, n := range l.ops {
		s.Ops[op] = n
	}
	l.mu.Unlock()
	return s
}

// guard times one RPC into the load view under its op name.
func (l *WorkerLoad) guard(ctx context.Context, op string, next func(context.Context) error) error {
	start := time.Now()
	err := next(ctx)
	l.record(op, time.Since(start), err)
	return err
}

// WrapLoad wraps each transport with a load recorder, returning the wrapped
// transports and the index-aligned recorders. Wrap outside the breakers
// (WrapLoad(WrapBreakers(...))) so breaker rejections show up in the
// outcome mix as breaker_skips rather than vanishing.
func WrapLoad(ts []Transport) ([]Transport, []*WorkerLoad) {
	out := make([]Transport, len(ts))
	loads := make([]*WorkerLoad, len(ts))
	for i, t := range ts {
		loads[i] = &WorkerLoad{addr: t.Addr(), ops: map[string]int64{}}
		out[i] = wrap(t, loads[i].guard)
	}
	return out, loads
}
