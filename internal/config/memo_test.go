package config

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"bundling/internal/obs"
	"bundling/internal/wtp"
)

// benchPatches returns the bench-scale corpus of benchCorpus and a seeded
// stream of 4-cell patches against its evolving generations: each cell
// either deletes a non-zero cell or sets a random coordinate to a
// rating-derived WTP ((1–5 stars)/5 · λ · item price), with equal odds,
// so the density stays put — the re-optimise loop a serving daemon sees.
func benchPatches(t testing.TB, seed int64) (*wtp.Matrix, func(*wtp.Matrix) []wtp.Cell) {
	t.Helper()
	ds, w := benchDataset(t)
	rng := rand.New(rand.NewSource(seed))
	return w, func(w *wtp.Matrix) []wtp.Cell {
		var cells []wtp.Cell
		touched := map[[2]int]bool{}
		for len(cells) < 4 {
			u, i := rng.Intn(w.Consumers()), rng.Intn(w.Items())
			if rng.Intn(2) == 0 {
				post := w.Postings(i)
				if len(post) == 0 {
					continue
				}
				u = post[rng.Intn(len(post))].Consumer
			}
			if touched[[2]int{u, i}] {
				continue
			}
			touched[[2]int{u, i}] = true
			if w.At(u, i) != 0 && rng.Intn(2) == 0 {
				cells = append(cells, wtp.Cell{Consumer: u, Item: i, Delete: true})
				continue
			}
			stars := 1 + rng.Intn(5)
			cells = append(cells, wtp.Cell{Consumer: u, Item: i, Value: float64(stars) / 5 * 1.25 * ds.Prices[i]})
		}
		return cells
	}
}

// passCounts sums a solve's price_candidates spans: pairs in the passes
// and verdicts a memo served, over every pass and over the later rounds
// (every pass after the first).
type passCounts struct {
	pairs, reused, laterPairs, laterReused int
	memoBytes                              int
}

// solveCounted runs a on s under a trace and returns the result with its
// pass counts.
func solveCounted(t testing.TB, s *Solver, a Algorithm) (*Configuration, passCounts) {
	t.Helper()
	tr := obs.NewTrace("", 0)
	cfg, err := s.SolveContext(obs.ContextWithTrace(context.Background(), tr), a)
	if err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	var c passCounts
	first := true
	for _, sp := range tr.Finish().Spans {
		tags := map[string]int{}
		for _, tag := range sp.Tags {
			tags[tag.Key], _ = strconv.Atoi(tag.Value)
		}
		switch sp.Name {
		case "solve":
			c.memoBytes = tags["memo_bytes"]
		case "price_candidates":
			c.pairs += tags["pairs"]
			c.reused += tags["reused"]
			if !first {
				c.laterPairs += tags["pairs"]
				c.laterReused += tags["reused"]
			}
			first = false
		}
	}
	return cfg, c
}

// TestLineageMemoBounded runs the bench-scale re-optimise loop — a 4-cell
// patch, then one solve, rotating optimal2, matching and greedy in
// shuffled cycles — for 300 steps under mixed bundling. The later-round
// memo must stay at or under 1 MB of accounted bytes and maxMemoPairs
// verdicts at every step, while still serving verdicts. It checks sizes on
// one goroutine, so it skips under -race (TestPairMemoConcurrentGenerations
// races the memo).
func TestLineageMemoBounded(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("bench-scale solves")
	}
	w, patch := benchPatches(t, 1)
	params := DefaultParams()
	params.Strategy = Mixed
	s, err := NewSolver(w, params)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var cycle []Algorithm
	var total passCounts
	maxBytes, maxEntries := 0, 0
	start := time.Now()
	for step := 0; step < 300; step++ {
		if s, err = s.ApplyDelta(patch(s.Matrix()), nil); err != nil {
			t.Fatal(err)
		}
		if len(cycle) == 0 {
			cycle = pairAlgorithms()
			rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		}
		_, c := solveCounted(t, s, cycle[0])
		cycle = cycle[1:]
		total.pairs += c.pairs
		total.reused += c.reused
		total.laterPairs += c.laterPairs
		total.laterReused += c.laterReused
		maxBytes = max(maxBytes, c.memoBytes)
		maxEntries = max(maxEntries, s.lin.memo.size())
		if c.memoBytes > 1<<20 {
			t.Fatalf("step %d: memo_bytes %d, want at most 1 MB", step, c.memoBytes)
		}
		if n := s.lin.memo.size(); n > maxMemoPairs {
			t.Fatalf("step %d: memo holds %d verdicts, cap %d", step, n, maxMemoPairs)
		}
	}
	t.Logf("300 steps in %v: later rounds reused %d of %d verdicts (%.0f%%), all passes %d of %d; peak memo %d verdicts, %d bytes",
		time.Since(start).Round(time.Millisecond), total.laterReused, total.laterPairs, 100*float64(total.laterReused)/float64(total.laterPairs),
		total.reused, total.pairs, maxEntries, maxBytes)
	if total.laterReused == 0 {
		t.Error("the later-round memo served no verdict")
	}
}

// bothOrders reports whether the pure memo holds some pair of identities
// filed in both argument orders: a under owner b and b under owner a.
func bothOrders(m *pairMemo) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	filed := func(owner, partner ident) bool {
		l := m.lists[owner]
		return l != nil && l.has(partner)
	}
	for owner, l := range m.lists {
		for _, p := range l.rejects {
			if filed(p, owner) {
				return true
			}
		}
		for _, k := range l.keeps {
			if filed(k.partner, owner) {
				return true
			}
		}
	}
	return false
}

// TestPairMemoMatchesRebuild chains seeded deltas through one lineage for
// pure and mixed bundling, at θ = 0 (common-interest pruning on) and with
// DisablePruning; pure chains run once more with the greedy run-to-end
// variant (pure only), whose greedy bypasses both memos. Every generation
// is solved by optimal2, matching and greedy in shuffled order, and each
// result must equal a from-scratch session over the replayed matrix bit
// for bit. Mixed chains must have the later-round memo serve verdicts, and
// the other pure chains must file a pair of trees in both argument orders
// — the case where keying by call order matters.
func TestPairMemoMatchesRebuild(t *testing.T) {
	type chain struct {
		strategy        Strategy
		prune, runToEnd bool
	}
	var chains []chain
	for _, strategy := range []Strategy{Pure, Mixed} {
		for _, prune := range []bool{true, false} {
			chains = append(chains, chain{strategy, prune, false})
			if strategy == Pure {
				chains = append(chains, chain{strategy, prune, true})
			}
		}
	}
	for ci, ch := range chains {
		t.Run(fmt.Sprintf("%v/prune=%v/runToEnd=%v", ch.strategy, ch.prune, ch.runToEnd), func(t *testing.T) {
			params := DefaultParams()
			params.Strategy = ch.strategy
			params.DisablePruning = !ch.prune
			params.GreedyRunToEnd = ch.runToEnd
			seed := int64(ci + 1)
			rng := rand.New(rand.NewSource(seed))
			w := equivMatrix(t, seed*131, 60, 14, 0.3)
			s, err := NewSolver(w, params)
			if err != nil {
				t.Fatal(err)
			}
			ref := w
			laterReused, flipped := 0, false
			for gen := 0; gen < 6; gen++ {
				if gen > 0 {
					cells := deltaBatch(rng, s.Matrix(), 1+rng.Intn(4))
					if s, err = s.ApplyDelta(cells, nil); err != nil {
						t.Fatal(err)
					}
					ref = replay(t, ref, cells)
				}
				algs := pairAlgorithms()
				rng.Shuffle(len(algs), func(i, j int) { algs[i], algs[j] = algs[j], algs[i] })
				for _, a := range algs {
					got, c := solveCounted(t, s, a)
					identical(t, fmt.Sprintf("generation %d %s", gen, a.Name()), got, rebuilt(t, ref, params, a))
					laterReused += c.laterReused
				}
				flipped = flipped || bothOrders(&s.lin.memo)
			}
			if ch.strategy == Mixed && laterReused == 0 {
				t.Error("no later-round verdict was served from the memo")
			}
			if ch.strategy == Pure && !ch.runToEnd && !flipped {
				t.Error("no pair of trees was filed in both argument orders")
			}
		})
	}
}

// TestPairMemoConcurrentGenerations races solves on a parent session and
// on two generations derived from it, which share one lineage and so one
// later-round memo: every result must equal the rebuild of its own
// generation. Run it with -race.
func TestPairMemoConcurrentGenerations(t *testing.T) {
	for _, strategy := range []Strategy{Pure, Mixed} {
		t.Run(strategy.String(), func(t *testing.T) {
			params := DefaultParams()
			params.Strategy = strategy
			params.Parallelism = 2
			w := equivMatrix(t, 81, 60, 14, 0.3)
			s0, err := NewSolver(w, params)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s0.Solve(GreedyAlgorithm()); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(82))
			c1 := deltaBatch(rng, w, 4)
			s1, err := s0.ApplyDelta(c1, nil)
			if err != nil {
				t.Fatal(err)
			}
			w1 := replay(t, w, c1)
			c2 := deltaBatch(rng, w1, 4)
			s2, err := s1.ApplyDelta(c2, nil)
			if err != nil {
				t.Fatal(err)
			}
			gens := []struct {
				s *Solver
				w *wtp.Matrix
			}{{s0, w}, {s1, w1}, {s2, replay(t, w1, c2)}}
			algs := pairAlgorithms()
			want := make([][]*Configuration, len(gens))
			for g, gen := range gens {
				for _, a := range algs {
					want[g] = append(want[g], rebuilt(t, gen.w, params, a))
				}
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := range gens {
				for i := range algs {
					for rep := 0; rep < 2; rep++ {
						wg.Add(1)
						go func(g, i int) {
							defer wg.Done()
							<-start
							got, err := gens[g].s.Solve(algs[i])
							if err != nil {
								t.Errorf("generation %d %s: %v", g, algs[i].Name(), err)
								return
							}
							identical(t, fmt.Sprintf("generation %d %s", g, algs[i].Name()), got, want[g][i])
						}(g, i)
					}
				}
			}
			close(start)
			wg.Wait()
		})
	}
}

// TestPairMemoIdentitiesRunOut drives a lineage to the end of its
// identities: solves past the last identity must still equal a rebuild,
// with the nodes that got none kept out of the memo, and the next
// ApplyDelta must start a new lineage with a fresh memo and no round-one
// memo, whose solves equal a rebuild too.
func TestPairMemoIdentitiesRunOut(t *testing.T) {
	for _, strategy := range []Strategy{Pure, Mixed} {
		t.Run(strategy.String(), func(t *testing.T) {
			params := DefaultParams()
			params.Strategy = strategy
			w := equivMatrix(t, 91, 60, 14, 0.3)
			s, err := NewSolver(w, params)
			if err != nil {
				t.Fatal(err)
			}
			s.lin.ids.Store(math.MaxUint32 - 20)
			for _, a := range pairAlgorithms() {
				got, _ := solveCounted(t, s, a)
				identical(t, "past the last identity "+a.Name(), got, rebuilt(t, w, params, a))
			}
			if n := s.lin.ids.Load(); n < math.MaxUint32-20 {
				t.Fatalf("identity counter wrapped to %d", n)
			}
			for owner, l := range s.lin.memo.lists {
				if owner == 0 || slices.Contains(l.rejects, 0) || slices.ContainsFunc(l.keeps, func(k memoKeep) bool { return k.partner == 0 }) {
					t.Fatalf("the memo files a node without an identity under owner %d", owner)
				}
			}
			cells := deltaBatch(rand.New(rand.NewSource(92)), w, 4)
			next, err := s.ApplyDelta(cells, nil)
			if err != nil {
				t.Fatal(err)
			}
			if next.lin == s.lin || next.lin.memo.size() != 0 || next.round1.Load() != nil {
				t.Fatal("a delta on a spent lineage did not start a fresh one")
			}
			ref := replay(t, w, cells)
			for _, a := range pairAlgorithms() {
				got, _ := solveCounted(t, next, a)
				identical(t, "new lineage "+a.Name(), got, rebuilt(t, ref, params, a))
			}
			if after, err := next.ApplyDelta(deltaBatch(rand.New(rand.NewSource(93)), ref, 4), nil); err != nil || after.lin != next.lin {
				t.Fatalf("a delta on the new lineage left it (%v)", err)
			}
		})
	}
}
