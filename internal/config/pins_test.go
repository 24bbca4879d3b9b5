package config

import (
	"math"
	"slices"
	"testing"

	"bundling/internal/dataset"
	"bundling/internal/wtp"
)

// benchCorpus generates the bench-scale corpus of cmd/bundlebench (600
// users × 150 items, seed 42, λ = 1.25) and the 4-cell delta its Resolve
// rows apply: one cell in each quarter of the items, raising the item's
// first posting by half.
func benchCorpus(t testing.TB) (*wtp.Matrix, []wtp.Cell) {
	t.Helper()
	ds, w := benchDataset(t)
	var cells []wtp.Cell
	for k := 0; k < 4; k++ {
		item := k * ds.Items / 4
		if post := w.Postings(item); len(post) > 0 {
			cells = append(cells, wtp.Cell{Consumer: post[0].Consumer, Item: item, Value: 1.5 * post[0].Value})
		}
	}
	return w, cells
}

// benchDataset generates the bench-scale dataset and its WTP matrix.
func benchDataset(t testing.TB) (*dataset.Dataset, *wtp.Matrix) {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{Users: 600, Items: 150, RatingsPerUser: 18, MinDegree: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	w, err := ds.WTP(1.25)
	if err != nil {
		t.Fatal(err)
	}
	return ds, w
}

// TestBenchScaleRevenuePins pins the bench-scale revenues of the pair-based
// algorithms bit for bit, on a fresh session and on the session the 4-cell
// delta derives from a solved one. Pricing and merge-building changes must
// leave every one of them unchanged.
func TestBenchScaleRevenuePins(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale solves")
	}
	w, cells := benchCorpus(t)
	pins := []struct {
		strategy     Strategy
		alg          Algorithm
		fresh, patch float64
	}{
		{Pure, Optimal2Algorithm(), 87454.757499999963, 87448.029037499975},
		{Pure, MatchingAlgorithm(), 87454.757499999963, 87448.029037499975},
		{Pure, GreedyAlgorithm(), 87454.757499999963, 87448.029037499975},
		{Mixed, Optimal2Algorithm(), 89798.953094059398, 89783.358405940584},
		{Mixed, MatchingAlgorithm(), 90871.082181208913, 90814.871765705102},
		{Mixed, GreedyAlgorithm(), 90872.921016997017, 90788.145509797891},
	}
	for _, pin := range pins {
		params := DefaultParams()
		params.Strategy = pin.strategy
		s, err := NewSolver(w, params)
		if err != nil {
			t.Fatal(err)
		}
		label := pin.strategy.String() + "/" + pin.alg.Name()
		cfg, err := s.Solve(pin.alg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if math.Float64bits(cfg.Revenue) != math.Float64bits(pin.fresh) {
			t.Errorf("%s: revenue %.17g, pinned %.17g", label, cfg.Revenue, pin.fresh)
		}
		next, err := s.ApplyDelta(cells, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cfg, err = next.Solve(pin.alg); err != nil {
			t.Fatalf("%s after delta: %v", label, err)
		}
		if math.Float64bits(cfg.Revenue) != math.Float64bits(pin.patch) {
			t.Errorf("%s after delta: revenue %.17g, pinned %.17g", label, cfg.Revenue, pin.patch)
		}
	}
}

// TestMixedResolveAllocs bounds the allocations of a mixed re-solve (the
// 4-cell delta, then the derived session's first solve). Pricing a
// candidate merge allocates nothing and only the merges an algorithm takes
// build a node, so the count tracks merges taken, not candidates priced:
// Optimal2 makes about 2,600 allocations, where building every gaining
// candidate eagerly cost about 46,000. Greedy makes about 3,300; boxing
// each heap entry in an interface cost about 16,000.
func TestMixedResolveAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale solves")
	}
	w, cells := benchCorpus(t)
	params := DefaultParams()
	params.Strategy = Mixed
	for _, tc := range []struct {
		alg   Algorithm
		bound float64
	}{
		{Optimal2Algorithm(), 10000},
		{GreedyAlgorithm(), 5000},
	} {
		base, err := NewSolver(w, params)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := base.Solve(tc.alg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			next, err := base.ApplyDelta(cells, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := next.Solve(tc.alg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("mixed %s re-solve: %.0f allocs/op", tc.alg.Name(), allocs)
		if allocs > tc.bound {
			t.Errorf("mixed %s re-solve: %.0f allocs/op, want at most %.0f", tc.alg.Name(), allocs, tc.bound)
		}
	}
}

// TestMixedCandidateAllocs: pricing a mixed candidate merge on a warm
// evaluation context allocates nothing, for two singletons and for a
// merged bundle beside a singleton (θ ≠ 0 gives each its own scale).
func TestMixedCandidateAllocs(t *testing.T) {
	params := DefaultParams()
	params.Strategy = Mixed
	params.Theta = -0.1
	s, err := NewSolver(smallRandomMatrix(t, 80, 10, 4), params)
	if err != nil {
		t.Fatal(err)
	}
	e := s.newEngine()
	defer e.release()
	nodes := e.singletons()
	var merged *node
	for u := 0; u < len(nodes) && merged == nil; u++ {
		for v := u + 1; v < len(nodes) && merged == nil; v++ {
			if q, gain, ok := e.evalMerge(e.ctx, nodes[u], nodes[v], false); ok {
				merged = e.merge(nodes[u], nodes[v], pairResult{u: u, v: v, q: q, gain: gain})
			}
		}
	}
	if merged == nil {
		t.Fatal("no gaining pair to merge")
	}
	other := nodes[0]
	for _, n := range nodes {
		if !slices.Contains(merged.items, n.items[0]) {
			other = n
		}
	}
	for _, pair := range [][2]*node{{nodes[0], nodes[1]}, {merged, other}} {
		a, b := pair[0], pair[1]
		e.evalMerge(e.ctx, a, b, true)
		if n := testing.AllocsPerRun(20, func() { e.evalMerge(e.ctx, a, b, true) }); n != 0 {
			t.Errorf("candidate %v + %v: %.1f allocations, want 0", a.items, b.items, n)
		}
	}
}
