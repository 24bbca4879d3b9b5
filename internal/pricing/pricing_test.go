package pricing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bundling/internal/adoption"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(adoption.Step(), 0); err == nil {
		t.Error("expected error for T = 0")
	}
	if _, err := New(adoption.Step(), -5); err == nil {
		t.Error("expected error for negative T")
	}
	p := Default()
	if p.Levels() != DefaultLevels {
		t.Errorf("Levels() = %d, want %d", p.Levels(), DefaultLevels)
	}
}

func TestPriceOptimalEmpty(t *testing.T) {
	p := Default()
	if q := p.PriceUtility(nil, RevenueObjective()); q.Revenue != 0 || q.Price != 0 {
		t.Errorf("empty vector should quote zero, got %+v", q)
	}
	if q := p.PriceUtility([]float64{0, 0}, RevenueObjective()); q.Revenue != 0 {
		t.Errorf("all-zero vector should quote zero, got %+v", q)
	}
}

// TestPaperComponentsExample reproduces the paper's Table 1 component
// pricing: item A with WTPs {12, 8, 5} prices at $8 for revenue $16;
// item B with WTPs {4, 2, 11} prices at $11 for revenue $11.
func TestPaperComponentsExample(t *testing.T) {
	p, err := New(adoption.Step(), 1200) // fine grid hits the exact optima
	if err != nil {
		t.Fatal(err)
	}
	qa := p.PriceUtility([]float64{12, 8, 5}, RevenueObjective())
	if math.Abs(qa.Price-8) > 0.02 || math.Abs(qa.Revenue-16) > 0.05 {
		t.Errorf("item A quote = %+v, want price 8 revenue 16", qa)
	}
	if qa.Adopters != 2 {
		t.Errorf("item A adopters = %g, want 2", qa.Adopters)
	}
	qb := p.PriceUtility([]float64{4, 2, 11}, RevenueObjective())
	if math.Abs(qb.Price-11) > 0.02 || math.Abs(qb.Revenue-11) > 0.05 {
		t.Errorf("item B quote = %+v, want price 11 revenue 11", qb)
	}
	// Pure bundle {A,B} with θ=-0.05: WTPs {15.2, 9.5, 15.2} → price 15.2,
	// revenue 30.4.
	qp := p.PriceUtility([]float64{15.2, 9.5, 15.2}, RevenueObjective())
	if math.Abs(qp.Price-15.2) > 0.02 || math.Abs(qp.Revenue-30.4) > 0.05 {
		t.Errorf("bundle quote = %+v, want price 15.2 revenue 30.4", qp)
	}
}

// bruteForceStep scans candidate prices exactly at the WTP values, which
// is where the optimum of the step demand curve must lie.
func bruteForceStep(wtps []float64) Quote {
	best := Quote{}
	for _, p := range wtps {
		if p <= 0 {
			continue
		}
		n := 0
		for _, w := range wtps {
			if w >= p {
				n++
			}
		}
		if rev := p * float64(n); rev > best.Revenue {
			best = Quote{Price: p, Revenue: rev, Adopters: float64(n)}
		}
	}
	return best
}

// TestQuickStepNearBruteForce: the T-level grid reaches within the grid
// resolution of the exact step optimum.
func TestQuickStepNearBruteForce(t *testing.T) {
	pr, err := New(adoption.Step(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%30) + 1
		wtps := make([]float64, n)
		for i := range wtps {
			wtps[i] = rng.Float64() * 50
		}
		got := pr.PriceUtility(wtps, RevenueObjective())
		want := bruteForceStep(wtps)
		// Grid resolution: max/T per level; revenue loss ≤ adopters·step.
		tol := want.Adopters*maxOf(wtps)/2000 + 1e-9
		return got.Revenue >= want.Revenue-tol && got.Revenue <= want.Revenue+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// TestGridEqualityAdopts: a consumer whose WTP equals a grid price adopts.
func TestGridEqualityAdopts(t *testing.T) {
	pr, _ := New(adoption.Step(), 100)
	// All consumers at exactly 10; optimum must be price 10 with everyone.
	q := pr.PriceUtility([]float64{10, 10, 10, 10}, RevenueObjective())
	if math.Abs(q.Price-10) > 1e-9 || q.Adopters != 4 {
		t.Errorf("quote = %+v, want price 10 with 4 adopters", q)
	}
}

func TestSigmoidRevenueBelowStep(t *testing.T) {
	wtps := []float64{10, 12, 8, 20, 5}
	step := Default().PriceUtility(wtps, RevenueObjective())
	model, _ := adoption.New(0.5, 1, adoption.DefaultEpsilon)
	soft, _ := New(model, DefaultLevels)
	q := soft.PriceUtility(wtps, RevenueObjective())
	// Uncertainty forces lower expected revenue than the certain optimum
	// (paper Fig. 3 trend).
	if q.Revenue >= step.Revenue {
		t.Errorf("sigmoid revenue %g should be below step revenue %g", q.Revenue, step.Revenue)
	}
}

func TestSigmoidExactVsBucketed(t *testing.T) {
	model, _ := adoption.New(2, 1, adoption.DefaultEpsilon)
	rng := rand.New(rand.NewSource(3))
	wtps := make([]float64, 500)
	for i := range wtps {
		wtps[i] = rng.Float64() * 30
	}
	bucketed, _ := New(model, DefaultLevels)
	exact, _ := New(model, DefaultLevels)
	exact.SetExact(true)
	qb := bucketed.PriceUtility(wtps, RevenueObjective())
	qe := exact.PriceUtility(wtps, RevenueObjective())
	if math.Abs(qb.Revenue-qe.Revenue)/qe.Revenue > 0.02 {
		t.Errorf("bucketed revenue %g deviates >2%% from exact %g", qb.Revenue, qe.Revenue)
	}
}

func TestAlphaScalesPrices(t *testing.T) {
	biased, _ := adoption.New(adoption.DefaultGamma, 1.25, adoption.DefaultEpsilon)
	pr, _ := New(biased, 400)
	q := pr.PriceUtility([]float64{10, 10}, RevenueObjective())
	// With α = 1.25 every consumer acts as if WTP were 12.5.
	if math.Abs(q.Price-12.5) > 0.05 {
		t.Errorf("price = %g, want ≈ 12.5 under α=1.25", q.Price)
	}
}

// --- Mixed offers -------------------------------------------------------

// TestPaperMixedUpgradeExample reproduces Sec. 4.2's u1 walk-through:
// wA=12, wB=4, wAB=15.2. At pA=8, pB=8, pAB=15.2 u1 keeps A alone; at
// pA=12, pB=4, pAB=15.2 u1 takes the bundle.
func TestPaperMixedUpgradeExample(t *testing.T) {
	pr := Default()
	// Scenario 1: current purchase = A at 8 (surplus 4).
	pay, _, switched := pr.ResolveSwitch(15.2, 8, 4, 15.2)
	if switched || pay != 8 {
		t.Errorf("scenario 1: pay=%g switched=%v, want keep A at 8", pay, switched)
	}
	// Scenario 2: current purchases = A at 12 and B at 4 (surplus 0 each).
	pay, _, switched = pr.ResolveSwitch(15.2, 16, 0, 15.2)
	if switched {
		t.Errorf("bundle at 15.2 vs current pay 16: keeping pays more, got switch")
	}
	// Scenario 2 with only A at 12 affordable (surplus 0): bundle ties on
	// surplus and pays more → switch.
	pay, _, switched = pr.ResolveSwitch(15.2, 12, 0, 15.2)
	if !switched || math.Abs(pay-15.2) > 1e-9 {
		t.Errorf("scenario 2: pay=%g switched=%v, want bundle at 15.2", pay, switched)
	}
}

func TestPriceMixedFindsUpliftingPrice(t *testing.T) {
	pr := Default()
	// Two consumers: one buys a component (pay 8, surplus 2), one buys
	// nothing but has bundle WTP 11. Window (8, 14). A bundle price ≈ 11
	// captures the second consumer without tempting the first.
	off := MixedOffer{
		CurPay:     []float64{8, 0},
		CurSurplus: []float64{2, 0},
		WB:         []float64{10, 11},
		Lo:         8,
		Hi:         14,
		Obj:        RevenueObjective(),
	}
	q := pr.PriceMixed(off)
	if !q.Feasible {
		t.Fatalf("expected feasible mixed quote, got %+v", q)
	}
	if q.Baseline != 8 {
		t.Errorf("baseline = %g, want 8", q.Baseline)
	}
	if q.Revenue <= 8+10.8 || q.Revenue > 8+11 {
		t.Errorf("revenue = %g, want ≈ 19 (component 8 + bundle ≈ 11)", q.Revenue)
	}
	if q.Adopters < 0.99 || q.Adopters > 1.01 {
		t.Errorf("adopters = %g, want 1", q.Adopters)
	}
}

func TestPriceMixedInfeasibleWindow(t *testing.T) {
	pr := Default()
	off := MixedOffer{
		CurPay:     []float64{5},
		CurSurplus: []float64{0},
		WB:         []float64{100},
		Lo:         10,
		Hi:         10, // empty window
	}
	q := pr.PriceMixed(off)
	if q.Feasible {
		t.Errorf("empty window must be infeasible: %+v", q)
	}
	if q.Revenue != q.Baseline {
		t.Errorf("infeasible quote should carry baseline revenue")
	}
}

func TestPriceMixedNeverBelowBaseline(t *testing.T) {
	pr := Default()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		off := MixedOffer{
			CurPay:     make([]float64, n),
			CurSurplus: make([]float64, n),
			WB:         make([]float64, n),
			Obj:        RevenueObjective(),
		}
		for j := 0; j < n; j++ {
			off.CurPay[j] = rng.Float64() * 10
			off.CurSurplus[j] = rng.Float64() * 5
			off.WB[j] = rng.Float64() * 30
		}
		off.Lo = 5 + rng.Float64()*5
		off.Hi = off.Lo + rng.Float64()*10
		q := pr.PriceMixed(off)
		if q.Revenue < q.Baseline-1e-9 {
			t.Fatalf("revenue %g below baseline %g", q.Revenue, q.Baseline)
		}
		if q.Feasible && q.Price <= off.Lo {
			t.Fatalf("chosen price %g not above Lo %g", q.Price, off.Lo)
		}
		if q.Feasible && q.Price >= off.Hi {
			t.Fatalf("chosen price %g not below Hi %g", q.Price, off.Hi)
		}
	}
}

func TestResolveSwitchMisalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for misaligned vectors")
		}
	}()
	Default().PriceMixed(MixedOffer{CurPay: []float64{1}, CurSurplus: nil, WB: []float64{1}})
}

// TestQuickMixedPaymentBounded: a consumer's expected payment never
// exceeds their bundle WTP when they switch (step model: pay ≤ wb).
func TestQuickMixedPaymentBounded(t *testing.T) {
	pr := Default()
	f := func(wbRaw, payRaw, surpRaw, pbRaw float64) bool {
		wb := math.Mod(math.Abs(wbRaw), 100)
		curPay := math.Mod(math.Abs(payRaw), 100)
		curSurp := math.Mod(math.Abs(surpRaw), 50)
		pb := math.Mod(math.Abs(pbRaw), 120) + 0.01
		pay, _, switched := pr.ResolveSwitch(wb, curPay, curSurp, pb)
		if switched {
			return pay <= wb+1e-6 && pay == pb
		}
		return pay == curPay
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
