package pricing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bundling/internal/adoption"
)

// referencePriceMixed is the O(m·T) per-level rescan the deterministic
// sweep replaced; the fast path must reproduce it exactly.
func referencePriceMixed(p *Pricer, off MixedOffer) MixedQuote {
	q := referenceBaseline(off)
	if off.Hi <= off.Lo {
		return q
	}
	T := p.levels
	for t := 1; t <= T; t++ {
		pb := off.Lo + (off.Hi-off.Lo)*float64(t)/float64(T+1)
		if at := referenceAt(p, off, q, pb); at.Utility > q.Utility {
			q = at
		}
	}
	return q
}

// referenceBaseline is the quote of the offer with no bundle on sale.
func referenceBaseline(off MixedOffer) MixedQuote {
	var basePay, baseCost, baseSur float64
	for j, pay := range off.CurPay {
		basePay += pay
		baseCost += at0(off.CurCost, j)
		baseSur += at0(off.CurESurplus, j)
	}
	q := MixedQuote{Revenue: basePay, Baseline: basePay, Surplus: baseSur}
	q.BaselineUtility = off.Obj.ProfitWeight*(basePay-baseCost) + (1-off.Obj.ProfitWeight)*baseSur
	q.Utility = q.BaselineUtility
	return q
}

// referenceAt is the quote base with the bundle on sale at pb, evaluated
// consumer by consumer.
func referenceAt(p *Pricer, off MixedOffer, base MixedQuote, pb float64) MixedQuote {
	rev, cost, sur, adopters := p.offerOutcome(off, pb)
	base.Price, base.Revenue, base.Adopters, base.Surplus = pb, rev, adopters, sur
	base.Utility = off.Obj.ProfitWeight*(rev-cost) + (1-off.Obj.ProfitWeight)*sur
	base.Feasible = true
	return base
}

// randomMixedOffer fabricates a plausible offer state under the revenue
// objective: per-consumer bundle WTPs, current payments at or below WTP,
// and surpluses consistent with a prior purchase.
func randomMixedOffer(rng *rand.Rand, m int, withCosts bool) MixedOffer {
	off := MixedOffer{
		CurPay:     make([]float64, m),
		CurSurplus: make([]float64, m),
		WB:         make([]float64, m),
		Obj:        RevenueObjective(),
	}
	if withCosts {
		off.CurCost = make([]float64, m)
		off.CurESurplus = make([]float64, m)
	}
	var maxPart, sumPart float64
	for j := 0; j < m; j++ {
		wb := rng.Float64() * 40
		pay := rng.Float64() * wb
		off.WB[j] = wb
		off.CurPay[j] = pay
		if rng.Float64() < 0.7 {
			off.CurSurplus[j] = rng.Float64() * (wb - pay)
		}
		if withCosts {
			off.CurCost[j] = rng.Float64() * pay * 0.3
			off.CurESurplus[j] = off.CurSurplus[j] * 0.9
		}
		if pay > maxPart {
			maxPart = pay
		}
		sumPart += pay
	}
	off.Lo = maxPart
	off.Hi = maxPart + rng.Float64()*(sumPart-maxPart+5)
	return off
}

// starMixedOffer mimics the bench corpus: two items whose WTPs are
// λ·list·stars/5 for whole stars, each priced at one of its WTP levels.
// Consumers buy every item they can afford, so many share one state and tie
// in τ. The bundle's window is (max item price, sum of item prices), and
// the objective is revenue.
func starMixedOffer(rng *rand.Rand, m int) MixedOffer {
	off := MixedOffer{
		CurPay:     make([]float64, m),
		CurSurplus: make([]float64, m),
		WB:         make([]float64, m),
		Obj:        RevenueObjective(),
	}
	var list, price [2]float64
	for i := range list {
		list[i] = 1 + float64(rng.Intn(2000))/100
		price[i] = 1.25 * list[i] * float64(1+rng.Intn(5)) / 5
	}
	for j := 0; j < m; j++ {
		for i := range list {
			w := 1.25 * list[i] * float64(rng.Intn(6)) / 5
			off.WB[j] += w
			if w > 0 && w >= price[i] {
				off.CurPay[j] += price[i]
				off.CurSurplus[j] += w - price[i]
			}
		}
	}
	off.Lo, off.Hi = max(price[0], price[1]), price[0]+price[1]
	return off
}

// edgeMixedOffer places consumers on the sweep's boundaries for T levels:
// τ exactly at a level price, exactly 2ε either side of it, one ulp beyond
// either 2ε bound, above Hi and below Lo. Current surplus is zero, so τ is
// the bundle WTP itself. With narrow set the window is so tight that the
// level spacing is below 4ε, and a consumer sits in the tie windows of
// several levels. The objective is revenue.
func edgeMixedOffer(rng *rand.Rand, T, m int, narrow bool) MixedOffer {
	const eps = adoption.DefaultEpsilon
	off := MixedOffer{
		CurPay:     make([]float64, m),
		CurSurplus: make([]float64, m),
		WB:         make([]float64, m),
		Lo:         5 + rng.Float64()*10,
		Obj:        RevenueObjective(),
	}
	off.Hi = off.Lo + 1 + rng.Float64()*10
	if narrow {
		off.Hi = off.Lo + rng.Float64()*4*eps*float64(T+1)
	}
	for j := 0; j < m; j++ {
		pb := off.Lo + (off.Hi-off.Lo)*float64(1+rng.Intn(T))/float64(T+1)
		var tau float64
		switch rng.Intn(8) {
		case 0:
			tau = pb
		case 1:
			tau = pb + 2*eps
		case 2:
			tau = pb - 2*eps
		case 3:
			tau = math.Nextafter(pb+2*eps, math.Inf(1))
		case 4:
			tau = math.Nextafter(pb-2*eps, math.Inf(-1))
		case 5:
			tau = off.Hi + rng.Float64()*5
		case 6:
			tau = off.Lo * rng.Float64()
		default:
			tau = off.Lo + rng.Float64()*(off.Hi-off.Lo)
		}
		off.WB[j] = tau
		// Paying the full WTP makes a tie-window switch hinge on the
		// payment comparison of ResolveSwitch.
		off.CurPay[j] = tau
		if rng.Intn(2) == 0 {
			off.CurPay[j] *= rng.Float64()
		}
	}
	return off
}

// shapedMixedOffer draws an offer of the given shape: random states, the
// star-discretized corpus, or consumers on the level boundaries in a wide
// or a narrow window. Random states may carry costs and a non-default
// objective.
func shapedMixedOffer(rng *rand.Rand, T, m, shape int) MixedOffer {
	switch shape % 5 {
	case 1:
		off := randomMixedOffer(rng, m, true)
		off.BundleCost = rng.Float64() * 3
		off.Obj = Objective{ProfitWeight: 0.6, UnitCost: off.BundleCost}
		return off
	case 2:
		return starMixedOffer(rng, m)
	case 3:
		return edgeMixedOffer(rng, T, m, false)
	case 4:
		return edgeMixedOffer(rng, T, m, true)
	}
	return randomMixedOffer(rng, m, false)
}

// mixedQuoteMismatch checks the sweep's quote for off against the
// reference: Price and Feasible exactly, every other field within 1e-9,
// relative above 1 because the two paths add up to 2,000 consumers in
// different orders. It returns "" on a match. The one exemption is an exact tie, where only
// summation order decides: the star-discretized corpus has offers whose
// best level gains exactly nothing in real arithmetic (17 switchers at
// pb_11 of T = 16 paying 6·Lo + 11·Hi between them), and there the
// reference's rounding may read a gain of 1e-14 that the sweep's does not.
// So when the choices differ, the reference's own evaluation of the
// sweep's choice must reach the reference optimum within 1e-9, and the
// sweep's fields are held to that evaluation.
func mixedQuoteMismatch(p *Pricer, off MixedOffer, got MixedQuote) string {
	want := referencePriceMixed(p, off)
	if got.Price != want.Price || got.Feasible != want.Feasible {
		at := referenceBaseline(off)
		if got.Feasible {
			at = referenceAt(p, off, at, got.Price)
		}
		if math.Abs(at.Utility-want.Utility) > 1e-9 {
			return fmt.Sprintf("price %.17g feasible %v, reference %.17g %v", got.Price, got.Feasible, want.Price, want.Feasible)
		}
		want = at
	}
	for _, f := range []struct {
		name string
		g, w float64
	}{
		{"revenue", got.Revenue, want.Revenue},
		{"baseline", got.Baseline, want.Baseline},
		{"adopters", got.Adopters, want.Adopters},
		{"utility", got.Utility, want.Utility},
		{"baseline utility", got.BaselineUtility, want.BaselineUtility},
		{"surplus", got.Surplus, want.Surplus},
	} {
		if math.Abs(f.g-f.w) > 1e-9*max(1, math.Abs(f.w)) {
			return fmt.Sprintf("%s = %.15g, reference %.15g", f.name, f.g, f.w)
		}
	}
	return ""
}

// TestPriceMixedStepMatchesReference cross-checks the O(m + T) level-bucket
// sweep against the per-level rescan for T of 1, 2, 100 and 1,000 and up to
// 2,000 consumers, over random states (with costs and a non-default
// objective), star-discretized WTPs that tie in τ, and τ on the level
// boundaries and their ε tie windows, including windows narrow enough that
// the tie windows of neighbouring levels overlap.
func TestPriceMixedStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, T := range []int{1, 2, 100, 1000} {
		p, err := New(adoption.Default(), T)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			m := 1 + rng.Intn(50)
			if trial%20 == 0 {
				m = 1 + rng.Intn(2000)
			}
			off := shapedMixedOffer(rng, T, m, trial)
			if msg := mixedQuoteMismatch(p, off, p.PriceMixed(off)); msg != "" {
				t.Fatalf("T=%d trial %d (shape %d, m=%d): %s", T, trial, trial%5, m, msg)
			}
		}
	}
}

// FuzzPriceMixedStep holds the sweep to the reference rule of
// TestPriceMixedStepMatchesReference over fuzzed seeds, level counts,
// consumer counts and offer shapes.
func FuzzPriceMixedStep(f *testing.F) {
	for shape := uint8(0); shape < 5; shape++ {
		f.Add(int64(shape), uint16(100), uint16(40), shape)
	}
	f.Add(int64(7), uint16(1), uint16(2000), uint8(2))
	f.Add(int64(9), uint16(1000), uint16(300), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, levels, consumers uint16, shape uint8) {
		T := 1 + int(levels)%1000
		m := 1 + int(consumers)%2000
		p, err := New(adoption.Default(), T)
		if err != nil {
			t.Fatal(err)
		}
		off := shapedMixedOffer(rand.New(rand.NewSource(seed)), T, m, int(shape))
		if msg := mixedQuoteMismatch(p, off, p.PriceMixed(off)); msg != "" {
			t.Fatalf("T=%d m=%d shape %d seed %d: %s", T, m, shape%5, seed, msg)
		}
	})
}

// TestPriceMixedStepTieWindow pins the ε tie-break semantics: a consumer
// whose threshold coincides with a grid price must resolve through
// ResolveSwitch identically on both paths.
func TestPriceMixedStepTieWindow(t *testing.T) {
	p := Default()
	T := float64(p.Levels())
	lo, hi := 10.0, 20.0
	// Place one consumer's switch threshold exactly on grid level 50.
	pb := lo + (hi-lo)*50/(T+1)
	surplus := 2.0
	off := MixedOffer{
		WB:         []float64{pb + surplus, 30, 12},
		CurPay:     []float64{9, 11, 8},
		CurSurplus: []float64{surplus, 1, 0.5},
		Lo:         lo,
		Hi:         hi,
		Obj:        RevenueObjective(),
	}
	got := p.PriceMixed(off)
	want := referencePriceMixed(p, off)
	if got != want {
		t.Fatalf("tie-window quote = %+v, reference %+v", got, want)
	}
}

// TestPriceMixedStepNegativeSurplus covers out-of-contract inputs an
// external caller could pass: negative current surplus, where the binding
// switch constraint becomes the bs ≥ -ε price guard rather than the
// surplus comparison.
func TestPriceMixedStepNegativeSurplus(t *testing.T) {
	p := Default()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		off := randomMixedOffer(rng, 1+rng.Intn(30), false)
		for j := range off.CurSurplus {
			if rng.Float64() < 0.4 {
				off.CurSurplus[j] = -rng.Float64() * 20
			}
		}
		got := p.PriceMixed(off)
		want := referencePriceMixed(p, off)
		if got.Feasible != want.Feasible || math.Abs(got.Utility-want.Utility) > 1e-9 {
			t.Fatalf("trial %d: quote = %+v, reference %+v", trial, got, want)
		}
		if !got.Feasible {
			continue
		}
		// Negative surpluses flatten the revenue curve enough that distinct
		// price levels can tie in utility to within float-reordering noise;
		// the two paths may then pick different tied optima. The contract
		// is that the fast path's chosen price is optimal per the reference
		// evaluation, not that the argmax index matches.
		rev, cost, sur, _ := p.offerOutcome(off, got.Price)
		util := 1*(rev-cost) + 0*sur
		if math.Abs(util-want.Utility) > 1e-9 {
			t.Fatalf("trial %d: fast price %.12g has reference utility %.12g, optimum %.12g",
				trial, got.Price, util, want.Utility)
		}
	}
}

// TestPriceMixedStochasticUnchanged ensures the sigmoid model still routes
// through the generic evaluation.
func TestPriceMixedStochasticUnchanged(t *testing.T) {
	model, err := adoption.New(2.0, 1, adoption.DefaultEpsilon)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(model, DefaultLevels)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	off := randomMixedOffer(rng, 25, false)
	got := p.PriceMixed(off)
	want := referencePriceMixed(p, off)
	if got != want {
		t.Fatalf("stochastic quote = %+v, reference %+v", got, want)
	}
}
