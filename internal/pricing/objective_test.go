package pricing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bundling/internal/adoption"
)

// scanUtility prices wtps on the grid of T levels under a step model with
// bias alpha and the objective obj by a direct O(m·T) scan that shares no
// code with the histogram search: level t's price is α·maxW·t/T, a consumer
// adopts at it when its grid position α·w/(α·maxW)·T + 1e-9 is at least t,
// and the first maximum from the top is kept. It returns the best quote and
// every level's quote (levels[t] for t = 1…T; nil when no consumer has a
// positive WTP).
func scanUtility(wtps []float64, alpha float64, T int, obj Objective) (best UtilityQuote, levels []UtilityQuote) {
	maxW := 0.0
	for _, w := range wtps {
		maxW = math.Max(maxW, w)
	}
	if maxW <= 0 {
		return best, nil
	}
	levels = make([]UtilityQuote, T+1)
	for t := T; t >= 1; t-- {
		var n, sw float64
		for _, w := range wtps {
			if alpha*w/(alpha*maxW)*float64(T)+1e-9 >= float64(t) {
				n++
				sw += alpha * w
			}
		}
		price := alpha * maxW * float64(t) / float64(T)
		q := UtilityQuote{Quote: Quote{Price: price, Revenue: price * n, Adopters: n}}
		q.Profit = (price - obj.UnitCost) * n
		q.Surplus = math.Max(sw-price*n, 0)
		q.Utility = obj.ProfitWeight*q.Profit + (1-obj.ProfitWeight)*q.Surplus
		levels[t] = q
		if t == T || q.Utility > best.Utility {
			best = q
		}
	}
	return best, levels
}

// fuzzWTPs draws a WTP vector of the given shape for a grid of T levels:
// real or whole-dollar values (some zero), values on and 1e-12 either side
// of grid prices, one consumer, all-equal values, or a few values
// duplicated many times.
func fuzzWTPs(rng *rand.Rand, T int, alpha float64, shape uint8) []float64 {
	m := 1 + rng.Intn(60)
	wtps := make([]float64, m)
	switch shape % 6 {
	case 0:
		for i := range wtps {
			if rng.Intn(10) > 0 {
				wtps[i] = rng.Float64() * 50
			}
		}
	case 1:
		for i := range wtps {
			wtps[i] = float64(rng.Intn(21))
		}
	case 2:
		maxW := 1 + rng.Float64()*49
		wtps[0] = maxW
		for i := 1; i < m; i++ {
			t := float64(1 + rng.Intn(T))
			w := maxW * t / float64(T)
			if rng.Intn(2) == 0 {
				w = alpha * maxW * t / float64(T) / alpha
			}
			wtps[i] = w + []float64{0, 1e-12, -1e-12}[rng.Intn(3)]
		}
	case 3:
		wtps = wtps[:1]
		wtps[0] = rng.Float64() * 50
	case 4:
		w := rng.Float64() * 50
		for i := range wtps {
			wtps[i] = w
		}
	default:
		pool := []float64{rng.Float64() * 50, rng.Float64() * 50, rng.Float64() * 50}
		for i := range wtps {
			wtps[i] = pool[rng.Intn(len(pool))]
		}
	}
	return wtps
}

// FuzzPriceUtility holds the single-bundle search to scanUtility under the
// step model, for T from 1 to 2,000 and adoption bias α around 1. Under the
// revenue objective the Quote must match the scan's bit for bit, with
// profit and utility equal to the revenue. Under
// α_obj in (0, 1) with a unit cost the histogram adds the adopters' WTP in
// another order, so the utility must agree within 1e-9 (relative above 1),
// and the chosen level may differ from the scan's only where the two tie
// within that tolerance; at the chosen level, the price, revenue, adopters
// and profit must still match the scan's bit for bit. One scratch serves
// every vector of a run.
func FuzzPriceUtility(f *testing.F) {
	for shape := uint8(0); shape < 6; shape++ {
		f.Add(int64(shape), uint16(99), shape, false)
		f.Add(int64(shape), uint16(1999), shape, true)
	}
	f.Add(int64(7), uint16(0), uint8(2), false)
	f.Add(int64(8), uint16(1), uint8(4), true)
	// Two levels tie for the most revenue: {37.67, 18.84, 1.65} at α = 0.75
	// and T = 228 earns 28.2556 at the top level and at its half.
	f.Add(int64(-187), uint16(2227), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, levels uint16, shape uint8, utility bool) {
		T := 1 + int(levels)%2000
		rng := rand.New(rand.NewSource(seed))
		alpha := []float64{1, 0.75, 1.25, 0.5 + 1.5*rng.Float64()}[rng.Intn(4)]
		model, err := adoption.New(adoption.DefaultGamma, alpha, adoption.DefaultEpsilon)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(model, T)
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScratch(T)
		for trial := 0; trial < 4; trial++ {
			wtps := fuzzWTPs(rng, T, alpha, shape)
			obj := RevenueObjective()
			if utility {
				obj = Objective{ProfitWeight: 0.01 + 0.98*rng.Float64(), UnitCost: rng.Float64() * 20}
			}
			got := p.PriceUtilityIn(sc, wtps, obj)
			want, lv := scanUtility(wtps, alpha, T, obj)
			if msg := utilityQuoteMismatch(got, want, lv, !utility); msg != "" {
				t.Fatalf("T=%d α=%g %+v seed %d trial %d, wtps %v: %s", T, alpha, obj, seed, trial, wtps, msg)
			}
		}
	})
}

// utilityQuoteMismatch checks got against the scan's best quote want and
// its per-level quotes lv, as FuzzPriceUtility describes, and returns "" on
// a match.
func utilityQuoteMismatch(got, want UtilityQuote, lv []UtilityQuote, revenue bool) string {
	same := func(a, b Quote) bool {
		return math.Float64bits(a.Price) == math.Float64bits(b.Price) &&
			math.Float64bits(a.Revenue) == math.Float64bits(b.Revenue) &&
			math.Float64bits(a.Adopters) == math.Float64bits(b.Adopters)
	}
	if lv == nil {
		if got != (UtilityQuote{}) {
			return fmt.Sprintf("quote %+v for no positive WTP", got)
		}
		return ""
	}
	if revenue {
		if !same(got.Quote, want.Quote) {
			return fmt.Sprintf("quote %+v, scan %+v", got.Quote, want.Quote)
		}
		if got.Profit != got.Revenue || got.Utility != got.Revenue {
			return fmt.Sprintf("revenue objective: profit %.17g and utility %.17g should be the revenue %.17g", got.Profit, got.Utility, got.Revenue)
		}
		return ""
	}
	k := len(lv) - 1
	for k >= 1 && lv[k].Price != got.Price {
		k--
	}
	if k < 1 {
		return fmt.Sprintf("price %.17g is no grid level", got.Price)
	}
	at := lv[k]
	tol := 1e-9 * math.Max(1, math.Abs(want.Utility))
	switch {
	case !same(got.Quote, at.Quote) || got.Profit != at.Profit:
		return fmt.Sprintf("at level %d quote %+v, scan %+v", k, got, at)
	case math.Abs(got.Utility-at.Utility) > tol || math.Abs(got.Surplus-at.Surplus) > tol:
		return fmt.Sprintf("at level %d utility %.17g surplus %.17g, scan %.17g %.17g", k, got.Utility, got.Surplus, at.Utility, at.Surplus)
	case math.Abs(at.Utility-want.Utility) > tol:
		return fmt.Sprintf("level %d (utility %.17g) chosen, scan's best is price %.17g (utility %.17g)", k, at.Utility, want.Price, want.Utility)
	}
	return ""
}

func TestUnitCostShiftsPriceUp(t *testing.T) {
	pr := Default()
	wtps := []float64{10, 10, 10, 20, 20}
	free := pr.PriceUtility(wtps, Objective{ProfitWeight: 1})
	costly := pr.PriceUtility(wtps, Objective{ProfitWeight: 1, UnitCost: 9})
	// At cost 9, selling to everyone at 10 nets 5×1; selling to the two
	// high types at 20 nets 2×11 — cost pushes the price up.
	if costly.Price <= free.Price {
		t.Errorf("price with cost %g should exceed zero-cost price %g", costly.Price, free.Price)
	}
	if costly.Profit <= 0 {
		t.Errorf("profit should remain positive, got %g", costly.Profit)
	}
	wantProfit := 2.0 * (20 - 9)
	if math.Abs(costly.Profit-wantProfit) > 0.5 {
		t.Errorf("profit = %g, want ≈ %g", costly.Profit, wantProfit)
	}
}

func TestSurplusWeightLowersPrice(t *testing.T) {
	pr := Default()
	wtps := []float64{10, 10, 20, 20}
	profitOnly := pr.PriceUtility(wtps, Objective{ProfitWeight: 1})
	balanced := pr.PriceUtility(wtps, Objective{ProfitWeight: 0.5})
	surplusOnly := pr.PriceUtility(wtps, Objective{ProfitWeight: 1e-9})
	// Weighting surplus pushes the price down (more consumers served,
	// each keeping more surplus).
	if balanced.Price > profitOnly.Price+1e-9 {
		t.Errorf("balanced price %g should not exceed profit-only price %g",
			balanced.Price, profitOnly.Price)
	}
	if surplusOnly.Price > balanced.Price+1e-9 {
		t.Errorf("surplus-only price %g should not exceed balanced price %g",
			surplusOnly.Price, balanced.Price)
	}
	if surplusOnly.Surplus < profitOnly.Surplus {
		t.Errorf("surplus-only objective should yield at least as much surplus")
	}
}

func TestPriceUtilityEmpty(t *testing.T) {
	pr := Default()
	if q := pr.PriceUtility(nil, RevenueObjective()); q.Utility != 0 || q.Price != 0 {
		t.Errorf("empty vector: %+v", q)
	}
}

func TestPriceUtilityStochastic(t *testing.T) {
	model, err := adoption.New(1, 1, adoption.DefaultEpsilon)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := New(model, DefaultLevels)
	if err != nil {
		t.Fatal(err)
	}
	wtps := []float64{10, 12, 14, 16}
	q := pr.PriceUtility(wtps, RevenueObjective())
	if q.Revenue <= 0 || q.Adopters <= 0 {
		t.Fatalf("stochastic quote: %+v", q)
	}
	// The bucketed search evaluates the sigmoid at bucket midpoints; its
	// revenue is within 1% of the best on the same grid evaluated consumer
	// by consumer.
	best := 0.0
	for t := 1; t <= DefaultLevels; t++ {
		price := 16 * float64(t) / DefaultLevels
		best = math.Max(best, price*model.ExpectedAdopters(price, wtps))
	}
	if math.Abs(q.Revenue-best) > 0.01*best {
		t.Errorf("stochastic PriceUtility revenue %g, per-consumer grid optimum %g", q.Revenue, best)
	}
}

// TestQuickUtilityDecomposition: utility = α·profit + (1-α)·surplus and
// profit = revenue − cost·adopters at the chosen price, on random inputs.
func TestQuickUtilityDecomposition(t *testing.T) {
	pr := Default()
	f := func(seed int64, alphaRaw, costRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := math.Mod(math.Abs(alphaRaw), 1)
		cost := math.Mod(math.Abs(costRaw), 10)
		n := 1 + rng.Intn(20)
		wtps := make([]float64, n)
		for i := range wtps {
			wtps[i] = rng.Float64() * 30
		}
		q := pr.PriceUtility(wtps, Objective{ProfitWeight: alpha, UnitCost: cost})
		wantProfit := q.Revenue - cost*q.Adopters
		if math.Abs(q.Profit-wantProfit) > 1e-6 {
			return false
		}
		wantU := alpha*q.Profit + (1-alpha)*q.Surplus
		return math.Abs(q.Utility-wantU) < 1e-6 && q.Surplus >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMixedObjectiveConsistency: the mixed quote's utility decomposes the
// same way: the revenue objective reproduces revenue maximization, and the
// zero objective is α = 0, consumer surplus alone.
func TestMixedObjectiveConsistency(t *testing.T) {
	pr := Default()
	off := MixedOffer{
		CurPay:     []float64{8, 0, 5},
		CurSurplus: []float64{2, 0, 1},
		WB:         []float64{10, 11, 9},
		Lo:         8, Hi: 14,
		Obj: RevenueObjective(),
	}
	def := pr.PriceMixed(off)
	if math.Abs(def.Utility-def.Revenue) > 1e-9 || math.Abs(def.BaselineUtility-def.Baseline) > 1e-9 {
		t.Errorf("revenue objective: utility %g/%g should equal revenue %g/%g",
			def.Utility, def.BaselineUtility, def.Revenue, def.Baseline)
	}
	offSurplus := off
	offSurplus.Obj = Objective{}
	if q := pr.PriceMixed(offSurplus); q.Utility != q.Surplus || q.BaselineUtility != 0 {
		t.Errorf("zero objective: utility %g/%g should equal surplus %g/0", q.Utility, q.BaselineUtility, q.Surplus)
	}
	// With a bundle cost of 100 the bundle can never be profitable.
	offCost := off
	offCost.BundleCost = 100
	offCost.Obj = Objective{ProfitWeight: 1, UnitCost: 100}
	q := pr.PriceMixed(offCost)
	if q.Feasible {
		t.Errorf("prohibitive bundle cost should be infeasible: %+v", q)
	}
}
