package config

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"bundling/internal/obs"
	"bundling/internal/wtp"
)

// pairAlgorithms are the algorithms that open with round one.
func pairAlgorithms() []Algorithm {
	return []Algorithm{Optimal2Algorithm(), MatchingAlgorithm(), GreedyAlgorithm()}
}

// identical requires got to equal want bit for bit: objective totals,
// iteration count, top-level bundles and retained components.
func identical(t *testing.T, label string, got, want *Configuration) {
	t.Helper()
	if got.Revenue != want.Revenue || got.Profit != want.Profit || got.Surplus != want.Surplus ||
		got.Utility != want.Utility || got.Iterations != want.Iterations {
		t.Errorf("%s: revenue %.17g profit %.17g surplus %.17g utility %.17g iterations %d; rebuild %.17g %.17g %.17g %.17g %d",
			label, got.Revenue, got.Profit, got.Surplus, got.Utility, got.Iterations,
			want.Revenue, want.Profit, want.Surplus, want.Utility, want.Iterations)
	}
	if !reflect.DeepEqual(got.Bundles, want.Bundles) || !reflect.DeepEqual(got.Components, want.Components) {
		t.Errorf("%s: bundles %v + %v; rebuild %v + %v", label, got.Bundles, got.Components, want.Bundles, want.Components)
	}
}

// solveTraced runs a on s under a trace and returns the result with the
// solve span's round1 path and round1_priced count.
func solveTraced(t *testing.T, s *Solver, a Algorithm) (*Configuration, string, int) {
	t.Helper()
	tr := obs.NewTrace("", 0)
	cfg, err := s.SolveContext(obs.ContextWithTrace(context.Background(), tr), a)
	if err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	doc := tr.Finish()
	path, priced := "", -1
	for _, sp := range doc.Spans {
		if sp.Name != "solve" {
			continue
		}
		for _, tag := range sp.Tags {
			switch tag.Key {
			case "round1":
				path = tag.Value
			case "round1_priced":
				priced, _ = strconv.Atoi(tag.Value)
			}
		}
	}
	return cfg, path, priced
}

// rebuilt solves a on a from-scratch session over w — the independent
// reference every memo-served solve is diffed against.
func rebuilt(t *testing.T, w *wtp.Matrix, params Params, a Algorithm) *Configuration {
	t.Helper()
	s, err := NewSolver(w, params)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Solve(a)
	if err != nil {
		t.Fatalf("%s (rebuild): %v", a.Name(), err)
	}
	return cfg
}

// TestRoundMemoMatchesRebuild chains deltas at θ = 0, where common-interest
// pruning is on, for pure and mixed bundling. Each generation's first
// pair-based solve repairs the inherited memo and the later ones reuse it;
// every solve must equal a from-scratch session over the replayed matrix
// bit for bit, and the repair must price only the kept survivors plus the
// pairs with a touched item.
func TestRoundMemoMatchesRebuild(t *testing.T) {
	for _, strategy := range []Strategy{Pure, Mixed} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", strategy, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				params := DefaultParams()
				params.Strategy = strategy
				const items = 14
				w := equivMatrix(t, seed*307, 60, items, 0.3)
				s, err := NewSolver(w, params)
				if err != nil {
					t.Fatal(err)
				}
				if _, path, priced := solveTraced(t, s, MatchingAlgorithm()); path != "build" || priced == 0 {
					t.Fatalf("first solve: round1=%s priced=%d, want a build", path, priced)
				}
				for round := 0; round < 4; round++ {
					cells := deltaBatch(rng, s.Matrix(), 1+rng.Intn(4))
					next, err := s.ApplyDelta(cells, nil)
					if err != nil {
						t.Fatal(err)
					}
					ref := replay(t, s.Matrix(), cells)
					touched := map[int]bool{}
					for _, c := range cells {
						touched[c.Item] = true
					}
					algs := pairAlgorithms()
					rng.Shuffle(len(algs), func(i, j int) { algs[i], algs[j] = algs[j], algs[i] })
					for i, a := range algs {
						label := fmt.Sprintf("round %d %s", round, a.Name())
						got, path, priced := solveTraced(t, next, a)
						identical(t, label, got, rebuilt(t, ref, params, a))
						want := "reuse"
						if i == 0 {
							want = "repair"
							// Pairs with a touched item number at most
							// |T|·(N-1); the rest are kept survivors.
							if bound := len(touched)*(items-1) + len(s.round1.Load().pairs); priced > bound {
								t.Errorf("%s: repair priced %d pairs, bound %d", label, priced, bound)
							}
						}
						if path != want {
							t.Errorf("%s: round1=%s, want %s", label, path, want)
						}
					}
					s = next
				}
			})
		}
	}
}

// TestRoundMemoUnsolvedGenerations chains deltas through generations that
// are never solved: the first solve after them must repair over the union
// of every delta's items, and a chain touching more than half the items
// must drop the memo and build afresh.
func TestRoundMemoUnsolvedGenerations(t *testing.T) {
	for _, strategy := range []Strategy{Pure, Mixed} {
		t.Run(strategy.String(), func(t *testing.T) {
			params := DefaultParams()
			params.Strategy = strategy
			const items = 16
			w := equivMatrix(t, 41, 70, items, 0.3)
			s, err := NewSolver(w, params)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Solve(GreedyAlgorithm()); err != nil {
				t.Fatal(err)
			}
			// Three deltas on disjoint item sets, so a repair that forgot
			// an unsolved generation's items would keep stale verdicts.
			rng := rand.New(rand.NewSource(43))
			cur, ref := s, w
			for gen := 0; gen < 3; gen++ {
				var cells []wtp.Cell
				for _, item := range []int{2 * gen, 2*gen + 1} {
					for u := 0; u < 6; u++ {
						cells = append(cells, wtp.Cell{Consumer: rng.Intn(w.Consumers()), Item: item, Value: 0.5 + rng.Float64()*30})
					}
					cells = append(cells, wtp.Cell{Consumer: rng.Intn(w.Consumers()), Item: item, Delete: true})
				}
				next, err := cur.ApplyDelta(cells, nil)
				if err != nil {
					t.Fatal(err)
				}
				ref = replay(t, ref, cells)
				cur = next
			}
			if m := cur.round1.Load(); m == nil || m.staleItems() != 6 {
				t.Fatalf("pending memo after three unsolved deltas: %+v, want 6 stale items", m)
			}
			for i, a := range pairAlgorithms() {
				got, path, _ := solveTraced(t, cur, a)
				identical(t, "after unsolved generations "+a.Name(), got, rebuilt(t, ref, params, a))
				if want := map[bool]string{true: "repair", false: "reuse"}[i == 0]; path != want {
					t.Errorf("%s: round1=%s, want %s", a.Name(), path, want)
				}
			}
			// Past half the items the memo is dropped: the next solve builds.
			var cells []wtp.Cell
			for item := 0; item <= items/2; item++ {
				cells = append(cells, wtp.Cell{Consumer: rng.Intn(w.Consumers()), Item: item, Value: 0.5 + rng.Float64()*30})
			}
			far, err := cur.ApplyDelta(cells, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, path, _ := solveTraced(t, far, MatchingAlgorithm())
			identical(t, "past half the items", got, rebuilt(t, replay(t, ref, cells), params, MatchingAlgorithm()))
			if path != "build" {
				t.Errorf("past half the items: round1=%s, want build", path)
			}
		})
	}
}

// TestRoundMemoK1Optimal2 covers a K = 1 session, where greedy and matching
// admit no pair but Optimal2 runs at a run-local k = 2: the k = 1 runs must
// neither store nor read the memo Optimal2 builds and repairs.
func TestRoundMemoK1Optimal2(t *testing.T) {
	for _, strategy := range []Strategy{Pure, Mixed} {
		t.Run(strategy.String(), func(t *testing.T) {
			params := DefaultParams()
			params.Strategy = strategy
			params.K = 1
			w := equivMatrix(t, 53, 60, 14, 0.3)
			s, err := NewSolver(w, params)
			if err != nil {
				t.Fatal(err)
			}
			steps := []struct {
				a    Algorithm
				path string
			}{
				{GreedyAlgorithm(), "bypass"},
				{Optimal2Algorithm(), "build"},
				{MatchingAlgorithm(), "bypass"},
				{Optimal2Algorithm(), "reuse"},
			}
			for _, st := range steps {
				got, path, _ := solveTraced(t, s, st.a)
				identical(t, "K=1 "+st.a.Name(), got, rebuilt(t, w, params, st.a))
				if path != st.path {
					t.Errorf("K=1 %s: round1=%s, want %s", st.a.Name(), path, st.path)
				}
			}
			cells := deltaBatch(rand.New(rand.NewSource(54)), w, 6)
			next, err := s.ApplyDelta(cells, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, path, _ := solveTraced(t, next, Optimal2Algorithm())
			identical(t, "K=1 optimal2 after delta", got, rebuilt(t, replay(t, w, cells), params, Optimal2Algorithm()))
			if path != "repair" {
				t.Errorf("K=1 optimal2 after delta: round1=%s, want repair", path)
			}
		})
	}
}

// TestRoundMemoRunToEnd covers GreedyRunToEnd, whose heap needs every
// mergeable pair: its greedy runs must bypass the memo the session's
// matching runs build and repair, before and after a delta.
func TestRoundMemoRunToEnd(t *testing.T) {
	params := DefaultParams()
	params.GreedyRunToEnd = true
	w := equivMatrix(t, 5, 50, 16, 0.3)
	s, err := NewSolver(w, params)
	if err != nil {
		t.Fatal(err)
	}
	cells := deltaBatch(rand.New(rand.NewSource(6)), w, 4)
	ref := replay(t, w, cells)
	for gen, step := range []struct {
		w    *wtp.Matrix
		path string // matching's round1 path
	}{{w, "build"}, {ref, "repair"}} {
		if _, path, _ := solveTraced(t, s, MatchingAlgorithm()); path != step.path {
			t.Errorf("generation %d matching: round1=%s, want %s", gen, path, step.path)
		}
		got, path, _ := solveTraced(t, s, GreedyAlgorithm())
		identical(t, fmt.Sprintf("generation %d run-to-end greedy", gen), got, rebuilt(t, step.w, params, GreedyAlgorithm()))
		if path != "bypass" {
			t.Errorf("generation %d run-to-end greedy: round1=%s, want bypass", gen, path)
		}
		if gen == 0 {
			if s, err = s.ApplyDelta(cells, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// fuseCtx is a context that cancels itself at its after-th Err check, so a
// run is cut off at a deterministic point: at Parallelism 1 the serial path
// of price checks Err once per job it prices.
type fuseCtx struct {
	context.Context
	cancel context.CancelFunc
	calls  atomic.Int64
	after  int64
}

func newFuseCtx(after int64) *fuseCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &fuseCtx{Context: ctx, cancel: cancel, after: after}
}

func (c *fuseCtx) Err() error {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return c.Context.Err()
}

// TestRoundMemoCanceledFirstSolve cancels a session's first solve partway
// through round one, once on a fresh session and once on a delta-derived
// one: the truncated pass must leave the memo as it was, and the next solve
// must build (or repair) and equal a rebuild.
func TestRoundMemoCanceledFirstSolve(t *testing.T) {
	params := DefaultParams()
	params.Strategy = Mixed
	params.Parallelism = 1
	w := equivMatrix(t, 61, 60, 14, 0.35)
	s, err := NewSolver(w, params)
	if err != nil {
		t.Fatal(err)
	}
	cells := deltaBatch(rand.New(rand.NewSource(62)), w, 5)
	ref := replay(t, w, cells)
	for gen, step := range []struct {
		w    *wtp.Matrix
		path string
	}{{w, "build"}, {ref, "repair"}} {
		before := s.round1.Load()
		fuse := newFuseCtx(20)
		_, err := s.SolveContext(fuse, GreedyAlgorithm())
		fuse.cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("generation %d: canceled solve returned %v", gen, err)
		}
		if fuse.calls.Load() < fuse.after {
			t.Fatalf("generation %d: fuse never blew (%d Err checks)", gen, fuse.calls.Load())
		}
		if after := s.round1.Load(); after != before {
			t.Fatalf("generation %d: canceled solve replaced the memo", gen)
		}
		got, path, _ := solveTraced(t, s, GreedyAlgorithm())
		identical(t, fmt.Sprintf("generation %d after cancel", gen), got, rebuilt(t, step.w, params, GreedyAlgorithm()))
		if path != step.path {
			t.Errorf("generation %d after cancel: round1=%s, want %s", gen, path, step.path)
		}
		if gen == 0 {
			if s, err = s.ApplyDelta(cells, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRoundMemoConcurrentFirstSolves races the first solves of a fresh
// session and of a delta-derived one: every result must equal the rebuild,
// and exactly one complete memo must end up published. Run it with
// -race -count=10.
func TestRoundMemoConcurrentFirstSolves(t *testing.T) {
	for _, strategy := range []Strategy{Pure, Mixed} {
		t.Run(strategy.String(), func(t *testing.T) {
			params := DefaultParams()
			params.Strategy = strategy
			params.Parallelism = 2
			w := equivMatrix(t, 71, 60, 14, 0.3)
			s, err := NewSolver(w, params)
			if err != nil {
				t.Fatal(err)
			}
			cells := deltaBatch(rand.New(rand.NewSource(72)), w, 5)
			ref := replay(t, w, cells)
			check := func(s *Solver, ref *wtp.Matrix) {
				algs := pairAlgorithms()
				want := make([]*Configuration, len(algs))
				for i, a := range algs {
					want[i] = rebuilt(t, ref, params, a)
				}
				start := make(chan struct{})
				var wg sync.WaitGroup
				for g := 0; g < 6; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						<-start
						i := g % len(algs)
						got, err := s.Solve(algs[i])
						if err != nil {
							t.Errorf("%s: %v", algs[i].Name(), err)
							return
						}
						if got.Revenue != want[i].Revenue || !reflect.DeepEqual(got.Bundles, want[i].Bundles) {
							t.Errorf("concurrent %s: revenue %.17g, rebuild %.17g", algs[i].Name(), got.Revenue, want[i].Revenue)
						}
					}(g)
				}
				close(start)
				wg.Wait()
				m := s.round1.Load()
				if m == nil || m.stale != nil {
					t.Fatalf("after concurrent first solves: memo %+v, want the session's own", m)
				}
				for i, a := range algs {
					got, path, _ := solveTraced(t, s, a)
					identical(t, "after concurrent first solves "+a.Name(), got, want[i])
					if path != "reuse" {
						t.Errorf("%s after concurrent first solves: round1=%s, want reuse", a.Name(), path)
					}
				}
			}
			check(s, w)
			next, err := s.ApplyDelta(cells, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(next, ref)
		})
	}
}

// TestSolveSpanCountsBuilt checks the engine's merge counters: the solve
// span's built tag counts the merged nodes a run builds, one per merge
// taken, so items − bundles for every pair-based algorithm; and every
// price_candidates span's gaining tag counts the candidates that passed the
// gain filter, at most the pairs it priced and together at least the
// merges built.
func TestSolveSpanCountsBuilt(t *testing.T) {
	const items = 14
	w := equivMatrix(t, 911, 60, items, 0.3)
	for _, strategy := range []Strategy{Pure, Mixed} {
		params := DefaultParams()
		params.Strategy = strategy
		s, err := NewSolver(w, params)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range pairAlgorithms() {
			label := fmt.Sprintf("%v/%s", strategy, a.Name())
			tr := obs.NewTrace("", 0)
			cfg, err := s.SolveContext(obs.ContextWithTrace(context.Background(), tr), a)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			built, gaining := -1, 0
			for _, sp := range tr.Finish().Spans {
				tags := map[string]int{}
				for _, tag := range sp.Tags {
					tags[tag.Key], _ = strconv.Atoi(tag.Value)
				}
				switch sp.Name {
				case "solve":
					built = tags["built"]
				case "price_candidates":
					if tags["gaining"] > tags["pairs"] {
						t.Errorf("%s: %d gaining of %d pairs priced", label, tags["gaining"], tags["pairs"])
					}
					gaining += tags["gaining"]
				}
			}
			if want := items - len(cfg.Bundles); built != want || want == 0 {
				t.Errorf("%s: built = %d, want %d merges taken", label, built, want)
			}
			if gaining < built {
				t.Errorf("%s: %d gaining candidates, fewer than %d merges built", label, gaining, built)
			}
		}
	}
}
