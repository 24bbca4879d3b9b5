package cluster

import "context"

// guard adds one behaviour around a worker RPC: it may reject the call,
// delay it, or observe its outcome, and runs the call itself by invoking
// next. op names the RPC ("assign", "delta", "drop", "vector", "union",
// "stats", "hist" or "health").
type guard func(ctx context.Context, op string, next func(context.Context) error) error

// guarded is the one Transport adapter behind Breaker, ChaosTransport and the
// load recorder: it implements every Transport method (plus Delta) once, each
// passing its op name through a guard chain to the raw transport at the
// bottom. Wrapping a guarded transport again composes the guards into one
// chain over the same raw transport instead of stacking adapters, so delta
// support is decided by that raw transport alone.
type guarded struct {
	base  Transport      // the raw transport the chain ends in
	delta DeltaTransport // base's delta extension; nil when it has none
	guard guard
}

// chained is implemented by guarded and by every type embedding it.
type chained interface{ chain() *guarded }

func (g *guarded) chain() *guarded { return g }

// wrap puts outer in front of t's calls. When t is itself guarded, outer is
// composed in front of t's chain over t's raw transport.
func wrap(t Transport, outer guard) *guarded {
	c, ok := t.(chained)
	if !ok {
		dt, _ := t.(DeltaTransport)
		return &guarded{base: t, delta: dt, guard: outer}
	}
	in := c.chain()
	inner := in.guard
	return &guarded{base: in.base, delta: in.delta, guard: func(ctx context.Context, op string, next func(context.Context) error) error {
		return outer(ctx, op, func(ctx context.Context) error { return inner(ctx, op, next) })
	}}
}

func (g *guarded) Assign(ctx context.Context, corpus string, req *AssignRequest) error {
	return g.guard(ctx, "assign", func(ctx context.Context) error { return g.base.Assign(ctx, corpus, req) })
}

// Delta answers errDeltaUnsupported without running the guards when the raw
// transport has no delta support: no RPC happens, so there is nothing to
// gate or record, and the coordinator full-feeds instead.
func (g *guarded) Delta(ctx context.Context, corpus string, req DeltaRequest) error {
	if g.delta == nil {
		return errDeltaUnsupported
	}
	return g.guard(ctx, "delta", func(ctx context.Context) error { return g.delta.Delta(ctx, corpus, req) })
}

func (g *guarded) Drop(ctx context.Context, corpus string) error {
	return g.guard(ctx, "drop", func(ctx context.Context) error { return g.base.Drop(ctx, corpus) })
}

func (g *guarded) Vector(ctx context.Context, corpus string, req VectorRequest) (resp VectorResponse, err error) {
	err = g.guard(ctx, "vector", func(ctx context.Context) error {
		resp, err = g.base.Vector(ctx, corpus, req)
		return err
	})
	return resp, err
}

func (g *guarded) Union(ctx context.Context, corpus string, req UnionRequest) (resp VectorResponse, err error) {
	err = g.guard(ctx, "union", func(ctx context.Context) error {
		resp, err = g.base.Union(ctx, corpus, req)
		return err
	})
	return resp, err
}

func (g *guarded) Stats(ctx context.Context, corpus string, req StatsRequest) (resp StatsResponse, err error) {
	err = g.guard(ctx, "stats", func(ctx context.Context) error {
		resp, err = g.base.Stats(ctx, corpus, req)
		return err
	})
	return resp, err
}

func (g *guarded) Hist(ctx context.Context, corpus string, req HistRequest) (resp HistResponse, err error) {
	err = g.guard(ctx, "hist", func(ctx context.Context) error {
		resp, err = g.base.Hist(ctx, corpus, req)
		return err
	})
	return resp, err
}

func (g *guarded) Health(ctx context.Context) (resp WorkerHealth, err error) {
	err = g.guard(ctx, "health", func(ctx context.Context) error {
		resp, err = g.base.Health(ctx)
		return err
	})
	return resp, err
}

func (g *guarded) Addr() string { return g.base.Addr() }
