package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"bundling"
)

// wrapChaos wraps each transport with its own seeded ChaosTransport.
func wrapChaos(ts []Transport, cfg ChaosConfig) ([]Transport, []*ChaosTransport) {
	out := make([]Transport, len(ts))
	cs := make([]*ChaosTransport, len(ts))
	for i, t := range ts {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		ct := NewChaos(t, c)
		out[i] = ct
		cs[i] = ct
	}
	return out, cs
}

// assertNoGoroutineLeak waits for the goroutine count to settle back to the
// pre-test baseline (plus slack for runtime helpers); the wait loop absorbs
// goroutines that are mid-exit when the test body returns.
func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosEquivalence is the fault-rate acceptance gate: with 10% and 30%
// injected transport errors plus stale-span rejections on every worker, all
// five algorithms and the evaluate paths must still match the single-machine
// solver within 1e-9 — the retry ladder (re-feed, replica, local store)
// absorbs every injected fault without touching results.
func TestChaosEquivalence(t *testing.T) {
	w := testMatrix(t, 150, 12, 4)
	before := runtime.NumGoroutine()
	for _, rate := range []float64{0.1, 0.3} {
		for _, strategy := range []bundling.Strategy{bundling.Pure, bundling.Mixed} {
			opts := bundling.Options{Strategy: strategy, Theta: -0.1, StripeSize: 16}
			local, err := bundling.NewSolver(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			_, base := fleet(3)
			chaosT, chaos := wrapChaos(base, ChaosConfig{Seed: int64(100*rate) + 7, ErrorRate: rate, StaleRate: 0.15})
			cs, err := NewSolver(w, opts, Config{Workers: chaosT, RequestTimeout: 2 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%v/rate=%g", strategy, rate)
			for _, alg := range bundling.Algorithms() {
				want, err := local.Solve(alg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cs.Solve(alg)
				if err != nil {
					t.Fatalf("%s %s: %v", label, alg.Name(), err)
				}
				sameConfig(t, label+"/"+alg.Name(), got, want)
			}
			want, err := local.Evaluate(evalOffers())
			if err != nil {
				t.Fatal(err)
			}
			got, err := cs.Evaluate(evalOffers())
			if err != nil {
				t.Fatalf("%s evaluate: %v", label, err)
			}
			sameConfig(t, label+"/evaluate", got, want)
			var injected int64
			for _, c := range chaos {
				e, s, _ := c.InjectedFaults()
				injected += e + s
			}
			if injected == 0 {
				t.Fatalf("%s: chaos injected nothing — the gate proved nothing", label)
			}
			if err := cs.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	assertNoGoroutineLeak(t, before)
}

// TestChaosBlackholedWorker: one worker of two hangs on every call (a
// SIGSTOPped process). An evaluate's latency must stay bounded by the
// per-RPC timeout — the ladder times the primary out and the replica
// answers — and results must stay exact, a solve's (which sends no RPC)
// included.
func TestChaosBlackholedWorker(t *testing.T) {
	w := testMatrix(t, 120, 10, 8)
	opts := bundling.Options{StripeSize: 16}
	local, err := bundling.NewSolver(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, base := fleet(2)
	chaosT, chaos := wrapChaos(base, ChaosConfig{Seed: 21})
	cs, err := NewSolver(w, opts, Config{Workers: chaosT, RequestTimeout: 50 * time.Millisecond, FeedTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		chaos[0].Blackhole(false) // let teardown's Drops through
		cs.Close()
	}()
	cs.exec.feeding.Wait() // feed the fleet before the lights go out
	chaos[0].Blackhole(true)
	want, err := local.Solve(bundling.Matching())
	if err != nil {
		t.Fatal(err)
	}
	got, err := cs.Solve(bundling.Matching())
	if err != nil {
		t.Fatal(err)
	}
	sameConfig(t, "blackholed-worker/solve", got, want)
	start := time.Now()
	sameEvaluates(t, "blackholed-worker/evaluate", cs, local, [][][]int{evalOffers()})
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("evaluate took %v with one blackholed worker; latency not bounded by the RPC timeout", elapsed)
	}
	st := cs.ClusterStats()
	if st.ReplicaRetries == 0 && st.LocalFallbacks == 0 {
		t.Fatalf("blackholed primary never failed over: %+v", st)
	}
}

// TestChaosBlackholedFleet: every worker hangs. The coordinator must
// degrade to the local span store with zero errors and bounded latency for
// every algorithm and the evaluate path, and Close must not leak the
// goroutines that are still waiting out their RPC timeouts.
func TestChaosBlackholedFleet(t *testing.T) {
	w := testMatrix(t, 100, 12, 12)
	before := runtime.NumGoroutine()
	opts := bundling.Options{StripeSize: 16}
	local, err := bundling.NewSolver(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, base := fleet(2)
	chaosT, chaos := wrapChaos(base, ChaosConfig{Seed: 31})
	cs, err := NewSolver(w, opts, Config{Workers: chaosT, RequestTimeout: 25 * time.Millisecond, FeedTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cs.exec.feeding.Wait()
	for _, c := range chaos {
		c.Blackhole(true)
	}
	for _, alg := range bundling.Algorithms() {
		want, err := local.Solve(alg)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		got, err := cs.Solve(alg)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%s through blackholed fleet: %v", alg.Name(), err)
		}
		sameConfig(t, "blackholed-fleet/"+alg.Name(), got, want)
		if elapsed > 30*time.Second {
			t.Fatalf("%s took %v; latency not bounded", alg.Name(), elapsed)
		}
	}
	want, err := local.Evaluate(evalOffers())
	if err != nil {
		t.Fatal(err)
	}
	got, err := cs.Evaluate(evalOffers())
	if err != nil {
		t.Fatalf("evaluate through blackholed fleet: %v", err)
	}
	sameConfig(t, "blackholed-fleet/evaluate", got, want)
	st := cs.ClusterStats()
	if st.LocalFallbacks == 0 {
		t.Fatalf("blackholed fleet answered remotely? %+v", st)
	}
	// Heal before Close so teardown's span Drops don't wait out a timeout
	// per worker; the leak check below still covers the blackholed calls.
	for _, c := range chaos {
		c.Blackhole(false)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoGoroutineLeak(t, before)
}

// TestChaosPartitionedFleet: a full partition fails fast, so the local
// degradation must be quick — well under one RPC timeout per call — and
// exact.
func TestChaosPartitionedFleet(t *testing.T) {
	w := testMatrix(t, 150, 12, 2)
	opts := bundling.Options{StripeSize: 16}
	local, err := bundling.NewSolver(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, base := fleet(2)
	chaosT, chaos := wrapChaos(base, ChaosConfig{Seed: 5})
	cs, err := NewSolver(w, opts, Config{Workers: chaosT, RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	for _, c := range chaos {
		c.Partition(true)
	}
	start := time.Now()
	for _, alg := range bundling.Algorithms() {
		want, err := local.Solve(alg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cs.Solve(alg)
		if err != nil {
			t.Fatalf("%s through partition: %v", alg.Name(), err)
		}
		sameConfig(t, "partition/"+alg.Name(), got, want)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("partitioned solves took %v; partition is not failing fast", elapsed)
	}
	if st := cs.ClusterStats(); st.LocalFallbacks == 0 {
		t.Fatalf("partitioned fleet answered remotely? %+v", st)
	}
}

// TestChaosBreakerRecovery wires the full resilience stack — chaos under
// breakers under the coordinator — partitions one worker until its breaker
// trips, then heals it and waits for the breaker to close again. Evaluates
// drive the RPCs; a solve sends none, and must match local throughout.
func TestChaosBreakerRecovery(t *testing.T) {
	w := testMatrix(t, 120, 10, 9)
	opts := bundling.Options{StripeSize: 16}
	local, err := bundling.NewSolver(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, base := fleet(2)
	chaosT, chaos := wrapChaos(base, ChaosConfig{Seed: 13})
	wrapped, breakers := WrapBreakers(chaosT, BreakerConfig{
		MinSamples: 2, Window: 6,
		Cooldown: 20 * time.Millisecond, MaxCooldown: 100 * time.Millisecond, Seed: 11,
	})
	cs, err := NewSolver(w, opts, Config{Workers: wrapped, RequestTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	cs.exec.feeding.Wait()
	chaos[0].Partition(true)
	want, err := local.Solve(bundling.Matching())
	if err != nil {
		t.Fatal(err)
	}
	got, err := cs.Solve(bundling.Matching())
	if err != nil {
		t.Fatal(err)
	}
	sameConfig(t, "breaker/partitioned/solve", got, want)
	lineups := [][][]int{evalOffers(), {{0, 1}, {2, 3, 4}}, {{5, 6}, {7}, {8, 9}}}
	sameEvaluates(t, "breaker/partitioned", cs, local, lineups)
	if breakers[0].State() == BreakerClosed {
		t.Fatal("worker 0's breaker did not trip under a partition")
	}
	// With the breaker open, further evaluates skip the dead worker
	// outright.
	sameEvaluates(t, "breaker/open", cs, local, lineups)
	if st := cs.ClusterStats(); st.BreakerSkips == 0 {
		t.Fatalf("open breaker was never consulted: %+v", st)
	}
	// Heal the worker; the cooldown elapses, a probe goes through, and the
	// breaker closes.
	chaos[0].Partition(false)
	deadline := time.Now().Add(5 * time.Second)
	for breakers[0].State() != BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered: %+v", breakers[0].Snapshot())
		}
		sameEvaluates(t, "breaker/healing", cs, local, lineups[:1])
		time.Sleep(10 * time.Millisecond)
	}
	got, err = cs.Solve(bundling.Matching())
	if err != nil {
		t.Fatal(err)
	}
	sameConfig(t, "breaker/recovered/solve", got, want)
}

// TestChaosDeterministicSchedule: identical seeds over identical call
// sequences must inject identical fault schedules — the property the chaos
// bench and any bisection of a chaos failure rely on.
func TestChaosDeterministicSchedule(t *testing.T) {
	mk := func() *ChaosTransport {
		return NewChaos(&errTransport{name: "w"}, ChaosConfig{
			Seed: 5, ErrorRate: 0.3, StaleRate: 0.2, Latency: 50 * time.Microsecond,
		})
	}
	a, b := mk(), mk()
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		_, errA := a.Vector(ctx, "c", VectorRequest{})
		_, errB := b.Vector(ctx, "c", VectorRequest{})
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("call %d diverged: %v vs %v", i, errA, errB)
		}
	}
	ea, sa, da := a.InjectedFaults()
	eb, sb, db := b.InjectedFaults()
	if ea != eb || sa != sb || da != db {
		t.Fatalf("fault counts diverged: (%d,%d,%d) vs (%d,%d,%d)", ea, sa, da, eb, sb, db)
	}
	if ea == 0 || sa == 0 || da == 0 {
		t.Fatalf("schedule injected nothing: errors=%d stale=%d delayed=%d", ea, sa, da)
	}
}

// TestSolveContextDeadline: a solve sends no RPC, so with every worker
// blackholed a fleet solve returns the local result well inside its caller's
// deadline, where a single RPC would hang until the deadline cut it off.
func TestSolveContextDeadline(t *testing.T) {
	w := testMatrix(t, 100, 8, 14)
	opts := bundling.Options{StripeSize: 16}
	local, err := bundling.NewSolver(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, base := fleet(2)
	chaosT, chaos := wrapChaos(base, ChaosConfig{Seed: 17})
	cs, err := NewSolver(w, opts, Config{Workers: chaosT, RequestTimeout: 10 * time.Second, FeedTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range chaos {
			c.Blackhole(false)
		}
		cs.Close()
	}()
	cs.exec.feeding.Wait()
	for _, c := range chaos {
		c.Blackhole(true)
	}
	const deadline = 5 * time.Second
	for _, alg := range []bundling.Algorithm{bundling.Optimal2(), bundling.Matching(), bundling.Greedy()} {
		want, err := local.Solve(alg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		before := cs.ClusterStats().RemoteCalls
		start := time.Now()
		got, err := cs.SolveContext(ctx, alg)
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			t.Fatalf("%s through a blackholed fleet: %v", alg.Name(), err)
		}
		sameConfig(t, "blackholed-solve/"+alg.Name(), got, want)
		if calls := cs.ClusterStats().RemoteCalls - before; calls != 0 {
			t.Fatalf("%s sent %d RPCs", alg.Name(), calls)
		}
		if elapsed > deadline/2 {
			t.Fatalf("%s took %v of its %v deadline", alg.Name(), elapsed, deadline)
		}
	}
}

// TestEvaluateContextCanceled: same contract on the evaluate path.
func TestEvaluateContextCanceled(t *testing.T) {
	w := testMatrix(t, 100, 12, 15)
	opts := bundling.Options{StripeSize: 16}
	_, base := fleet(2)
	chaosT, chaos := wrapChaos(base, ChaosConfig{Seed: 19})
	cs, err := NewSolver(w, opts, Config{Workers: chaosT, RequestTimeout: 10 * time.Second, FeedTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range chaos {
			c.Blackhole(false)
		}
		cs.Close()
	}()
	cs.exec.feeding.Wait()
	for _, c := range chaos {
		c.Blackhole(true)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = cs.EvaluateContext(ctx, evalOffers())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled evaluate still took %v", elapsed)
	}
}

// TestChaosDeltaMatchesRebuild is the delta-differential harness over a
// faulty fleet: delta chains applied through a 3-worker fleet with 10%
// injected errors and stale-span rejections must match a from-scratch local
// rebuild within 1e-9 on all five algorithms and Evaluate — and the chaos
// transports must pass the delta feeds through rather than hide them.
func TestChaosDeltaMatchesRebuild(t *testing.T) {
	const consumers, items, seed = 150, 12, 6
	before := runtime.NumGoroutine()
	for _, strategy := range []bundling.Strategy{bundling.Pure, bundling.Mixed} {
		opts := bundling.Options{Strategy: strategy, Theta: -0.1, StripeSize: 16}
		_, base := fleet(3)
		chaosT, _ := wrapChaos(base, ChaosConfig{Seed: 41, ErrorRate: 0.1, StaleRate: 0.1})
		cs, err := NewSolver(testMatrix(t, consumers, items, seed), opts, Config{Workers: chaosT, RequestTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var history [][]bundling.DeltaCell
		var deltaFeeds int64
		for round := 0; round < 3; round++ {
			cells := clusterDelta(rng, consumers, items, 5+rng.Intn(10))
			history = append(history, cells)
			next, err := cs.ApplyDelta(cells)
			if err != nil {
				t.Fatal(err)
			}
			cs.Close()
			cs = next
			local, err := bundling.NewSolver(replayMatrix(t, consumers, items, seed, history), opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%v/round=%d", strategy, round)
			for _, alg := range bundling.Algorithms() {
				want, err := local.Solve(alg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cs.Solve(alg)
				if err != nil {
					t.Fatalf("%s %s: %v", label, alg.Name(), err)
				}
				sameConfig(t, label+"/"+alg.Name(), got, want)
			}
			want, err := local.Evaluate(evalOffers())
			if err != nil {
				t.Fatal(err)
			}
			got, err := cs.Evaluate(evalOffers())
			if err != nil {
				t.Fatalf("%s evaluate: %v", label, err)
			}
			sameConfig(t, label+"/evaluate", got, want)
			deltaFeeds += cs.ClusterStats().DeltaFeeds
		}
		if deltaFeeds == 0 {
			t.Fatalf("%v: no delta feed got through the chaos fleet", strategy)
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
	}
	assertNoGoroutineLeak(t, before)
}
