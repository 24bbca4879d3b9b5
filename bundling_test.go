package bundling_test

import (
	"bytes"
	"math"
	"testing"

	"bundling"
)

// paperMatrix is the Table 1 example: 3 consumers × 2 items.
func paperMatrix() *bundling.Matrix {
	w := bundling.NewMatrix(3, 2)
	w.MustSet(0, 0, 12)
	w.MustSet(0, 1, 4)
	w.MustSet(1, 0, 8)
	w.MustSet(1, 1, 2)
	w.MustSet(2, 0, 5)
	w.MustSet(2, 1, 11)
	return w
}

func TestQuickstartFlow(t *testing.T) {
	w := paperMatrix()
	cfg, err := bundling.Configure(w, bundling.Options{Theta: -0.05, PriceLevels: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cfg.Revenue-30.4) > 0.1 {
		t.Errorf("pure matching revenue = %g, want 30.4", cfg.Revenue)
	}
	cov := bundling.Coverage(cfg, w)
	if cov <= 0 || cov > 100 {
		t.Errorf("coverage = %g out of range", cov)
	}
	gain, err := bundling.Gain(cfg, w, bundling.Options{Theta: -0.05, PriceLevels: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if gain <= 0 {
		t.Errorf("gain = %g, want positive (30.4 > 27)", gain)
	}
}

func TestAllSolversRun(t *testing.T) {
	w := paperMatrix()
	solvers := map[string]func() (*bundling.Configuration, error){
		"components": func() (*bundling.Configuration, error) {
			return bundling.SolveComponents(w, bundling.Options{})
		},
		"componentsAt": func() (*bundling.Configuration, error) {
			return bundling.SolveComponentsAt(w, []float64{8, 11}, bundling.Options{})
		},
		"optimal2": func() (*bundling.Configuration, error) {
			return bundling.SolveOptimal2(w, bundling.Options{})
		},
		"matching": func() (*bundling.Configuration, error) {
			return bundling.SolveMatching(w, bundling.Options{Strategy: bundling.Mixed})
		},
		"greedy": func() (*bundling.Configuration, error) {
			return bundling.SolveGreedy(w, bundling.Options{Strategy: bundling.Mixed})
		},
		"freqitemset": func() (*bundling.Configuration, error) {
			return bundling.SolveFreqItemset(w, 0.3, bundling.Options{})
		},
	}
	for name, solve := range solvers {
		cfg, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Revenue <= 0 {
			t.Errorf("%s: revenue %g", name, cfg.Revenue)
		}
		if !cfg.CoversAll(2) {
			t.Errorf("%s: does not cover the items", name)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	w := paperMatrix()
	bad := []bundling.Options{
		{Theta: -1},
		{MaxBundleSize: -2},
		{Gamma: -5},
		{Alpha: -1},
		{PriceLevels: -3},
		{PriceLevels: 1<<16 + 1},
	}
	for i, o := range bad {
		if _, err := bundling.Configure(w, o); err == nil {
			t.Errorf("case %d: expected error for %+v", i, o)
		}
	}
}

func TestStochasticOptions(t *testing.T) {
	w := paperMatrix()
	soft, err := bundling.SolveComponents(w, bundling.Options{Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	hard, err := bundling.SolveComponents(w, bundling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if soft.Revenue >= hard.Revenue {
		t.Errorf("uncertain adoption (γ=1) revenue %g should be below step %g",
			soft.Revenue, hard.Revenue)
	}
}

func TestFromRatings(t *testing.T) {
	ratings := []bundling.Rating{
		{Consumer: 0, Item: 0, Stars: 5},
		{Consumer: 1, Item: 0, Stars: 3},
		{Consumer: 1, Item: 1, Stars: 4},
	}
	w, err := bundling.FromRatings(2, 2, ratings, []float64{10, 8}, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.At(0, 0); math.Abs(got-12.5) > 1e-9 {
		t.Errorf("WTP(0,0) = %g, want 12.5", got)
	}
	cfg, err := bundling.Configure(w, bundling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Revenue <= 0 {
		t.Error("expected positive revenue from rated items")
	}
}

func TestGenerateDatasetRoundTrip(t *testing.T) {
	ds, err := bundling.GenerateDataset(bundling.DatasetConfig{
		Users: 120, Items: 40, RatingsPerUser: 10, MinDegree: 3, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := bundling.ReadDatasetCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Users != ds.Users || len(back.Ratings) != len(ds.Ratings) {
		t.Error("CSV round trip lost data")
	}
	w, err := ds.WTP(1.25)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := bundling.Configure(w, bundling.Options{Strategy: bundling.Mixed})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := bundling.SolveComponents(w, bundling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Revenue < comp.Revenue-1e-6 {
		t.Errorf("mixed bundling %g below components %g", cfg.Revenue, comp.Revenue)
	}
}

func TestPaperDatasetConfigShape(t *testing.T) {
	cfg := bundling.PaperDatasetConfig()
	if cfg.Users != 4449 || cfg.Items != 5028 {
		t.Errorf("paper config = %d×%d, want 4449×5028", cfg.Users, cfg.Items)
	}
}

func TestMaxBundleSizeCap(t *testing.T) {
	ds, err := bundling.GenerateDataset(bundling.DatasetConfig{
		Users: 150, Items: 30, RatingsPerUser: 10, MinDegree: 3, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := ds.WTP(1.25)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := bundling.SolveGreedy(w, bundling.Options{Strategy: bundling.Mixed, Theta: 0.1, MaxBundleSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range cfg.Bundles {
		if len(b.Items) > 3 {
			t.Errorf("bundle %v exceeds cap 3", b.Items)
		}
	}
}

func TestObjectiveOptionsPassthrough(t *testing.T) {
	w := paperMatrix()
	// Costs reduce profit below revenue.
	costs := []float64{1, 1}
	cfg, err := bundling.SolveComponents(w, bundling.Options{UnitCosts: costs})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Profit >= cfg.Revenue {
		t.Errorf("profit %g should be below revenue %g with unit costs", cfg.Profit, cfg.Revenue)
	}
	// A surplus-weighted objective yields at least as much surplus.
	profitOnly, err := bundling.SolveComponents(w, bundling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := bundling.SolveComponents(w, bundling.Options{ProfitWeight: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if balanced.Surplus < profitOnly.Surplus-1e-9 {
		t.Errorf("α=0.3 surplus %g below α=1 surplus %g", balanced.Surplus, profitOnly.Surplus)
	}
	if _, err := bundling.SolveComponents(w, bundling.Options{ProfitWeight: 2}); err == nil {
		t.Error("α > 1 should be rejected")
	}
	if _, err := bundling.SolveComponents(w, bundling.Options{UnitCosts: []float64{1}}); err == nil {
		t.Error("wrong-length cost vector should be rejected")
	}
}
