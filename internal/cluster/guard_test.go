package cluster

import (
	"context"
	"errors"
	"testing"
)

// TestGuardUnsupportedDeltaIsNoRPC: a delta through the daemon's stack —
// load recorder over breaker — to a worker without delta support never
// reaches the worker, so neither guard may see it: no load RPC, op or error,
// and no breaker sample. A delta-capable worker behind the same stack is
// recorded like any other RPC.
func TestGuardUnsupportedDeltaIsNoRPC(t *testing.T) {
	workers, transports := fleet(1)
	ctx := context.Background()
	req := DeltaRequest{BaseCorpus: "base", FromVersion: 1, ToVersion: 2}

	wrapped, breakers := WrapBreakers([]Transport{plainTransport{NewLocal(workers[0], "w0")}}, BreakerConfig{})
	loaded, loads := WrapLoad(wrapped)
	dt, ok := loaded[0].(DeltaTransport)
	if !ok {
		t.Fatal("guarded transport lost the Delta method")
	}
	if err := dt.Delta(ctx, "next", req); !errors.Is(err, errDeltaUnsupported) {
		t.Fatalf("delta over a delta-less worker = %v, want errDeltaUnsupported", err)
	}
	if ld := loads[0].Snapshot(); ld.RPCs != 0 || ld.Errors != 0 || ld.Ops["delta"] != 0 {
		t.Fatalf("unsupported delta recorded as an RPC: %+v", ld)
	}
	if b := breakers[0].Snapshot(); b.Samples != 0 {
		t.Fatalf("unsupported delta took a breaker sample: %+v", b)
	}

	wrapped, breakers = WrapBreakers(transports, BreakerConfig{})
	loaded, loads = WrapLoad(wrapped)
	if err := loaded[0].(DeltaTransport).Delta(ctx, "next", req); !errors.Is(err, ErrSpan) {
		t.Fatalf("delta against a missing base = %v, want ErrSpan", err)
	}
	if ld := loads[0].Snapshot(); ld.RPCs != 1 || ld.Errors != 0 || ld.Ops["delta"] != 1 {
		t.Fatalf("delta RPC not recorded: %+v", ld)
	}
	if b := breakers[0].Snapshot(); b.Samples != 1 || b.Failures != 0 {
		t.Fatalf("delta RPC not sampled as a success: %+v", b)
	}
}

// TestGuardChainOrder: wrapping a guarded transport composes one chain over
// the raw transport — outermost guard first — rather than stacking adapters.
func TestGuardChainOrder(t *testing.T) {
	_, transports := fleet(1)
	var calls []string
	mark := func(name string) guard {
		return func(ctx context.Context, op string, next func(context.Context) error) error {
			calls = append(calls, name+":"+op)
			return next(ctx)
		}
	}
	g := wrap(wrap(transports[0], mark("inner")), mark("outer"))
	if g.base != transports[0] {
		t.Fatalf("chain base = %v, want the raw transport", g.base)
	}
	if _, err := g.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[0] != "outer:health" || calls[1] != "inner:health" {
		t.Fatalf("guard calls = %v, want [outer:health inner:health]", calls)
	}
}
