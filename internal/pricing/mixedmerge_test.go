package pricing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bundling/internal/adoption"
	"bundling/internal/wtp"
)

// referenceMergeOffer builds, with plain loops over the consumer axis
// [0, universe), the offer PriceMixedMerge must price for parts a and b: the
// union of their vectors by wtp.UnionVectors, and per consumer of it the
// parts' state summed, a's first.
func referenceMergeOffer(universe int, a, b *MergePart, lo, hi float64, obj Objective) MixedOffer {
	ids, wb := wtp.UnionVectors(a.IDs, a.Vals, a.Scale, b.IDs, b.Vals, b.Scale, nil, nil)
	ia, ib := make([]int, universe), make([]int, universe)
	for u := range ia {
		ia[u], ib[u] = -1, -1
	}
	for k, u := range a.IDs {
		ia[u] = k
	}
	for k, u := range b.IDs {
		ib[u] = k
	}
	off := MixedOffer{WB: wb, Lo: lo, Hi: hi, BundleCost: obj.UnitCost, Obj: obj}
	for _, u := range ids {
		var pay, surp, cost, esur float64
		if k := ia[u]; k >= 0 {
			pay, surp, cost, esur = a.Pay[k], a.Surplus[k], a.Cost[k], a.ESurplus[k]
		}
		if k := ib[u]; k >= 0 {
			pay += b.Pay[k]
			surp += b.Surplus[k]
			cost += b.Cost[k]
			esur += b.ESurplus[k]
		}
		off.CurPay = append(off.CurPay, pay)
		off.CurSurplus = append(off.CurSurplus, surp)
		off.CurCost = append(off.CurCost, cost)
		off.CurESurplus = append(off.CurESurplus, esur)
	}
	return off
}

// mergeCase is one generated candidate merge.
type mergeCase struct {
	universe int
	a, b     MergePart
	lo, hi   float64
	obj      Objective
}

// randomMergeCase draws two parts over a consumer axis of up to 300
// consumers. Their consumer lists are disjoint, overlapping or identical;
// their scales equal (two multi-item parts, or two singletons under θ) or
// not (a singleton beside a bundle under θ ≠ 0); some current surpluses are
// negative; some consumers' switch thresholds land on a grid price of T
// levels or 2ε either side of it; and the window is a part's pricing window
// (max price, sum of prices), narrow enough for tie windows to overlap, or
// degenerate (a free part). The objective is revenue or α = 0.6 with a
// unit cost.
func randomMergeCase(rng *rand.Rand, T int) mergeCase {
	const eps = adoption.DefaultEpsilon
	c := mergeCase{universe: 1 + rng.Intn(300), obj: RevenueObjective()}
	lists := rng.Intn(3) // 0 disjoint, 1 identical, 2 overlapping
	var inA, inB []bool
	for u := 0; u < c.universe; u++ {
		x, y := rng.Intn(3) > 0, rng.Intn(3) > 0
		switch lists {
		case 0:
			y = y && !x
		case 1:
			y = x
		}
		inA, inB = append(inA, x), append(inB, y)
	}
	theta := []float64{0, -0.2 + 0.5*rng.Float64()}[rng.Intn(2)]
	switch rng.Intn(3) {
	case 0:
		c.a.Scale, c.b.Scale = 1, 1
	case 1:
		c.a.Scale, c.b.Scale = 1+theta, 1+theta
	default:
		c.a.Scale, c.b.Scale = 1+theta, 1
	}
	priceA, priceB := 1+rng.Float64()*20, 1+rng.Float64()*20
	c.lo, c.hi = max(priceA, priceB), priceA+priceB
	switch rng.Intn(5) {
	case 0: // a free part: the window is empty
		c.hi = c.lo
	case 1: // level spacing below 4ε
		c.hi = c.lo + rng.Float64()*4*eps*float64(T+1)
	}
	if rng.Intn(2) == 0 {
		c.obj = Objective{ProfitWeight: 0.6, UnitCost: rng.Float64() * 3}
	}
	fill := func(p *MergePart, in []bool, price float64) map[int]int {
		at := map[int]int{}
		for u, ok := range in {
			if !ok {
				continue
			}
			v := 1 + rng.Float64()*30
			pay, surp := 0.0, 0.0
			if v >= price {
				pay, surp = price, v-price
			}
			if rng.Intn(6) == 0 {
				surp = -rng.Float64() * 20
			}
			at[u] = len(p.IDs)
			p.IDs = append(p.IDs, u)
			p.Vals = append(p.Vals, v)
			p.Pay = append(p.Pay, pay)
			p.Surplus = append(p.Surplus, surp)
			p.Cost = append(p.Cost, rng.Float64()*pay*0.3)
			p.ESurplus = append(p.ESurplus, max(surp, 0)*0.9)
		}
		return at
	}
	atA, atB := fill(&c.a, inA, priceA), fill(&c.b, inB, priceB)
	// Put some consumers' thresholds τ = wb − surplus on, or 2ε either side
	// of, a grid price: the whole surplus on one part, none on the other.
	ids, wb := wtp.UnionVectors(c.a.IDs, c.a.Vals, c.a.Scale, c.b.IDs, c.b.Vals, c.b.Scale, nil, nil)
	for k, u := range ids {
		if rng.Intn(5) > 0 {
			continue
		}
		t := 1 + rng.Intn(T)
		pb := c.lo + (c.hi-c.lo)*float64(t)/float64(T+1)
		surp := wb[k] - pb + []float64{0, 2 * eps, -2 * eps}[rng.Intn(3)]
		ka, okA := atA[u]
		kb, okB := atB[u]
		if okA {
			c.a.Surplus[ka] = surp
		}
		if okB {
			c.b.Surplus[kb] = 0
			if !okA {
				c.b.Surplus[kb] = surp
			}
		}
	}
	return c
}

// mergeQuoteMismatch prices c with the kernel and with the reference offer
// through PriceMixedIn, and reports the first field that differs in its
// bits, or "".
func mergeQuoteMismatch(p *Pricer, sc *Scratch, c *mergeCase) string {
	got := p.PriceMixedMerge(sc, &c.a, &c.b, c.lo, c.hi, c.obj)
	want := p.PriceMixed(referenceMergeOffer(c.universe, &c.a, &c.b, c.lo, c.hi, c.obj))
	if got.Feasible != want.Feasible {
		return fmt.Sprintf("feasible %v, reference %v", got.Feasible, want.Feasible)
	}
	for _, f := range []struct {
		name string
		g, w float64
	}{
		{"price", got.Price, want.Price},
		{"revenue", got.Revenue, want.Revenue},
		{"baseline", got.Baseline, want.Baseline},
		{"adopters", got.Adopters, want.Adopters},
		{"utility", got.Utility, want.Utility},
		{"baseline utility", got.BaselineUtility, want.BaselineUtility},
		{"surplus", got.Surplus, want.Surplus},
	} {
		if math.Float64bits(f.g) != math.Float64bits(f.w) {
			return fmt.Sprintf("%s = %.17g, reference %.17g", f.name, f.g, f.w)
		}
	}
	return ""
}

// FuzzPriceMixedMerge holds the one-pass merge kernel to its reference bit
// for bit: the union and the summed state built by plain loops, priced by
// PriceMixedIn. Under a sigmoid model (γ = 2) the kernel builds that offer
// itself, so the check covers its fallback too. One scratch serves every
// candidate of a run, as one evaluation thread's does.
func FuzzPriceMixedMerge(f *testing.F) {
	f.Add(int64(1), uint16(100), false)
	f.Add(int64(2), uint16(1), false)
	f.Add(int64(3), uint16(2), false)
	f.Add(int64(4), uint16(1000), false)
	f.Add(int64(5), uint16(100), true)
	f.Fuzz(func(t *testing.T, seed int64, levels uint16, sigmoid bool) {
		T := 1 + int(levels)%1000
		model := adoption.Default()
		if sigmoid {
			var err error
			if model, err = adoption.New(2, 1, adoption.DefaultEpsilon); err != nil {
				t.Fatal(err)
			}
		}
		p, err := New(model, T)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		sc := NewScratch(T)
		for trial := 0; trial < 16; trial++ {
			c := randomMergeCase(rng, T)
			if msg := mergeQuoteMismatch(p, sc, &c); msg != "" {
				t.Fatalf("T=%d sigmoid=%v seed %d trial %d (universe %d, |a|=%d, |b|=%d, scales %g/%g, window (%g, %g)): %s",
					T, sigmoid, seed, trial, c.universe, len(c.a.IDs), len(c.b.IDs), c.a.Scale, c.b.Scale, c.lo, c.hi, msg)
			}
		}
	})
}
