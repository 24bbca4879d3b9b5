package sim

import (
	"math"
	"math/rand"
	"testing"

	"bundling/internal/adoption"
	"bundling/internal/config"
	"bundling/internal/wtp"
)

func randomMatrix(t testing.TB, consumers, items int, seed int64) *wtp.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := wtp.MustNew(consumers, items)
	for u := 0; u < consumers; u++ {
		for i := 0; i < items; i++ {
			if rng.Float64() < 0.4 {
				w.MustSet(u, i, 2+rng.Float64()*20)
			}
		}
	}
	return w
}

// TestPureStepMatchesExpectedRevenue: for a pure configuration (disjoint
// offers) under the deterministic step model, the simulator must realize
// exactly the configuration's expected revenue, whichever algorithm built
// it.
func TestPureStepMatchesExpectedRevenue(t *testing.T) {
	algs := []config.Algorithm{
		config.ComponentsAlgorithm(),
		config.Optimal2Algorithm(),
		config.MatchingAlgorithm(),
		config.GreedyAlgorithm(),
		config.FreqItemsetAlgorithm(config.FreqItemsetOptions{MinSupport: 0.05}),
	}
	for seed := int64(0); seed < 5; seed++ {
		w := randomMatrix(t, 50, 10, seed)
		p := config.DefaultParams()
		p.Theta = 0.05
		s, err := config.NewSolver(w, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range algs {
			cfg, err := s.Solve(a)
			if err != nil {
				t.Fatal(err)
			}
			out := Run(w, cfg, p.Theta, p.Model, rand.New(rand.NewSource(1)))
			// Tolerance: the pricing grid may land a price within float noise
			// of a consumer's WTP; choice and pricing agree to ~1e-6.
			if math.Abs(out.Revenue-cfg.Revenue) > 1e-5*math.Max(1, cfg.Revenue) {
				t.Errorf("seed %d %s: simulated %g, expected %g", seed, a.Name(), out.Revenue, cfg.Revenue)
			}
		}
	}
}

func TestComponentsSimulation(t *testing.T) {
	w := wtp.MustNew(3, 2)
	w.MustSet(0, 0, 12)
	w.MustSet(1, 0, 8)
	w.MustSet(2, 1, 11)
	p := config.DefaultParams()
	p.PriceLevels = 2000
	cfg, err := config.Components(w, p)
	if err != nil {
		t.Fatal(err)
	}
	out := Run(w, cfg, 0, p.Model, rand.New(rand.NewSource(1)))
	if math.Abs(out.Revenue-cfg.Revenue) > 0.05 {
		t.Errorf("simulated %g, expected %g", out.Revenue, cfg.Revenue)
	}
	if out.Transactions != 3 {
		t.Errorf("transactions = %d, want 3", out.Transactions)
	}
	if out.Surplus < 0 {
		t.Errorf("negative surplus %g", out.Surplus)
	}
}

func TestNoDoublePurchaseOfItem(t *testing.T) {
	// One consumer, one item offered both alone and inside a bundle; the
	// simulator must never sell the item twice.
	w := wtp.MustNew(1, 2)
	w.MustSet(0, 0, 10)
	w.MustSet(0, 1, 10)
	cfg := &config.Configuration{
		Strategy: config.Mixed,
		Bundles:  []config.Bundle{{Items: []int{0, 1}, Price: 15, Revenue: 15}},
		Components: []config.Bundle{
			{Items: []int{0}, Price: 8, Revenue: 8},
			{Items: []int{1}, Price: 8, Revenue: 8},
		},
	}
	out := Run(w, cfg, 0, adoption.Step(), rand.New(rand.NewSource(1)))
	// Best surplus: bundle at 15 (surplus 5) beats either single (2) and
	// both singles (4). Exactly one transaction.
	if out.Transactions != 1 || math.Abs(out.Revenue-15) > 1e-9 {
		t.Errorf("got %+v, want single bundle purchase at 15", out)
	}
}

func TestGreedyChoiceFallsBackToComponents(t *testing.T) {
	// Bundle too expensive → consumer buys the two components.
	w := wtp.MustNew(1, 2)
	w.MustSet(0, 0, 10)
	w.MustSet(0, 1, 10)
	cfg := &config.Configuration{
		Strategy: config.Mixed,
		Bundles:  []config.Bundle{{Items: []int{0, 1}, Price: 25}},
		Components: []config.Bundle{
			{Items: []int{0}, Price: 7},
			{Items: []int{1}, Price: 7},
		},
	}
	out := Run(w, cfg, 0, adoption.Step(), rand.New(rand.NewSource(1)))
	if out.Transactions != 2 || math.Abs(out.Revenue-14) > 1e-9 {
		t.Errorf("got %+v, want two component purchases at 7 each", out)
	}
}

func TestStochasticAverageConverges(t *testing.T) {
	w := wtp.MustNew(400, 1)
	for u := 0; u < 400; u++ {
		w.MustSet(u, 0, 10)
	}
	model, err := adoption.New(1, 1, adoption.DefaultEpsilon)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config.Configuration{
		Strategy: config.Pure,
		Bundles:  []config.Bundle{{Items: []int{0}, Price: 10}},
	}
	// P(adopt | 10, 10) = 0.5 → expected revenue 400·0.5·10 = 2000.
	out := Average(w, cfg, 0, model, 50, 3)
	if out.Revenue < 1800 || out.Revenue > 2200 {
		t.Errorf("average revenue = %g, want ≈ 2000", out.Revenue)
	}
}

func TestThetaAppliedOnlyToBundles(t *testing.T) {
	w := wtp.MustNew(1, 2)
	w.MustSet(0, 0, 10)
	cfg := &config.Configuration{
		Strategy: config.Pure,
		Bundles: []config.Bundle{
			{Items: []int{0}, Price: 10},
			{Items: []int{1}, Price: 1},
		},
	}
	// θ = -0.5 must not discount the singleton: consumer still buys at 10.
	out := Run(w, cfg, -0.5, adoption.Step(), rand.New(rand.NewSource(1)))
	if math.Abs(out.Revenue-10) > 1e-9 {
		t.Errorf("revenue = %g, want 10 (θ must not apply to singletons)", out.Revenue)
	}
}

func TestAverageRunsFloor(t *testing.T) {
	w := wtp.MustNew(1, 1)
	w.MustSet(0, 0, 5)
	cfg := &config.Configuration{Bundles: []config.Bundle{{Items: []int{0}, Price: 5}}}
	out := Average(w, cfg, 0, adoption.Step(), 0, 1) // runs < 1 coerced to 1
	if math.Abs(out.Revenue-5) > 1e-9 {
		t.Errorf("revenue = %g, want 5", out.Revenue)
	}
}
