package config

import (
	"math"
	"reflect"
	"testing"
)

// TestDefaultObjectiveCollapses: with α = 1 and zero costs the utility
// and profit equal the revenue on every method.
func TestDefaultObjectiveCollapses(t *testing.T) {
	w := smallRandomMatrix(t, 50, 10, 5)
	p := DefaultParams()
	for name, run := range map[string]func() (*Configuration, error){
		"components": func() (*Configuration, error) { return Components(w, p) },
		"matching":   func() (*Configuration, error) { return MatchingBased(w, p) },
		"greedy":     func() (*Configuration, error) { return GreedyMerge(w, p) },
	} {
		cfg, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cfg.Utility-cfg.Revenue) > 1e-6 || math.Abs(cfg.Profit-cfg.Revenue) > 1e-6 {
			t.Errorf("%s: utility %g, profit %g should equal revenue %g",
				name, cfg.Utility, cfg.Profit, cfg.Revenue)
		}
		if cfg.Surplus < 0 {
			t.Errorf("%s: negative surplus %g", name, cfg.Surplus)
		}
	}
}

// TestUnitCostsReduceProfit: with variable costs profit < revenue and the
// engine rejects a malformed cost vector.
func TestUnitCostsReduceProfit(t *testing.T) {
	w := smallRandomMatrix(t, 60, 10, 5)
	p := DefaultParams()
	p.UnitCosts = make([]float64, w.Items())
	for i := range p.UnitCosts {
		p.UnitCosts[i] = 1.5
	}
	cfg, err := Components(w, p)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Profit >= cfg.Revenue {
		t.Errorf("profit %g should be below revenue %g with unit costs", cfg.Profit, cfg.Revenue)
	}
	free, err := Components(w, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Profit-optimal pricing under costs can never beat zero-cost revenue.
	if cfg.Profit > free.Revenue+1e-9 {
		t.Errorf("costed profit %g above zero-cost revenue %g", cfg.Profit, free.Revenue)
	}
	p.UnitCosts = []float64{1} // wrong length
	if _, err := Components(w, p); err == nil {
		t.Error("expected error for cost vector length mismatch")
	}
	p.UnitCosts = make([]float64, w.Items())
	p.UnitCosts[0] = -1
	if _, err := Components(w, p); err == nil {
		t.Error("expected error for negative unit cost")
	}
}

// TestProfitWeightValidation and bounds of α.
func TestProfitWeightValidation(t *testing.T) {
	p := DefaultParams()
	p.ProfitWeight = 1.5
	if err := p.Validate(); err == nil {
		t.Error("α > 1 should fail validation")
	}
	p.ProfitWeight = -0.1
	if err := p.Validate(); err == nil {
		t.Error("α < 0 should fail validation")
	}
}

// TestSurplusWeightRaisesSurplus: lowering α trades profit for surplus,
// on both pure and mixed bundling.
func TestSurplusWeightRaisesSurplus(t *testing.T) {
	w := smallRandomMatrix(t, 80, 12, 5)
	for _, strat := range []Strategy{Pure, Mixed} {
		profitOnly := DefaultParams()
		profitOnly.Strategy = strat
		balanced := profitOnly
		balanced.ProfitWeight = 0.3
		a, err := MatchingBased(w, profitOnly)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MatchingBased(w, balanced)
		if err != nil {
			t.Fatal(err)
		}
		if b.Surplus < a.Surplus-1e-6 {
			t.Errorf("%v: α=0.3 surplus %g below α=1 surplus %g", strat, b.Surplus, a.Surplus)
		}
		if b.Profit > a.Profit+1e-6 {
			t.Errorf("%v: α=0.3 profit %g above α=1 profit %g", strat, b.Profit, a.Profit)
		}
	}
}

// TestMixedCostsStayConsistent: mixed bundling with costs keeps the
// decomposition utility = α·profit + (1-α)·surplus.
func TestMixedCostsStayConsistent(t *testing.T) {
	w := smallRandomMatrix(t, 60, 10, 5)
	p := DefaultParams()
	p.Strategy = Mixed
	p.ProfitWeight = 0.7
	p.UnitCosts = make([]float64, w.Items())
	for i := range p.UnitCosts {
		p.UnitCosts[i] = 0.8
	}
	cfg, err := GreedyMerge(w, p)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.7*cfg.Profit + 0.3*cfg.Surplus
	if math.Abs(cfg.Utility-want) > 1e-6 {
		t.Errorf("utility %g != 0.7·profit + 0.3·surplus = %g", cfg.Utility, want)
	}
	if cfg.Profit > cfg.Revenue {
		t.Errorf("profit %g exceeds revenue %g despite positive costs", cfg.Profit, cfg.Revenue)
	}
}

// TestZeroProfitWeightIsSurplus: α = 0 maximizes consumer surplus alone on
// every path, so each pair algorithm picks at α = 0 the bundles it picks at
// α = 1e-12, with the same utility, in pure and in mixed bundling.
func TestZeroProfitWeightIsSurplus(t *testing.T) {
	w := smallRandomMatrix(t, 120, 14, 4)
	itemsOf := func(cfg *Configuration) [][]int {
		var out [][]int
		for _, b := range append(cfg.Bundles, cfg.Components...) {
			out = append(out, b.Items)
		}
		return out
	}
	for _, strat := range []Strategy{Pure, Mixed} {
		for _, a := range pairAlgorithms() {
			p := DefaultParams()
			p.Strategy = strat
			p.ProfitWeight = 0
			zero := oneShot(t, a, w, p)
			p.ProfitWeight = 1e-12
			tiny := oneShot(t, a, w, p)
			if !reflect.DeepEqual(itemsOf(zero), itemsOf(tiny)) ||
				math.Abs(zero.Utility-tiny.Utility) > 1e-9*math.Max(1, math.Abs(tiny.Utility)) {
				t.Errorf("%v %s: α = 0 gives %d bundles, utility %.12g; α = 1e-12 gives %d, %.12g",
					strat, a.Name(), len(zero.Bundles), zero.Utility, len(tiny.Bundles), tiny.Utility)
			}
		}
	}
}
