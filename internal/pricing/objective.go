package pricing

// Objective is the seller's utility function from the paper's Sec. 1:
//
//	utility = α·profit + (1-α)·consumer surplus
//
// with profit = (price − unit cost) × adopters. The paper's evaluation
// fixes α = 1 and zero variable cost (digital goods), RevenueObjective, in
// which case the utility at each price is exactly the revenue; this type
// generalizes pricing to any α and known unit costs, as the paper's
// discussion promises. The zero value is α = 0: consumer surplus only.
type Objective struct {
	// ProfitWeight is α ∈ [0,1]: 1 maximizes profit only (the default
	// throughout the paper's evaluation), 0 maximizes consumer surplus.
	ProfitWeight float64
	// UnitCost is the variable cost of serving one adopter of the bundle
	// (0 for information goods).
	UnitCost float64
}

// RevenueObjective is the paper's default: α = 1, zero variable cost.
func RevenueObjective() Objective { return Objective{ProfitWeight: 1} }

// UtilityQuote extends Quote with the profit/surplus decomposition.
type UtilityQuote struct {
	Quote
	Profit  float64 // (price − cost) × expected adopters
	Surplus float64 // Σ over adopters of (WTP − price)
	Utility float64 // α·Profit + (1-α)·Surplus
}

// PriceUtility returns the utility-maximizing price for a bundle whose
// interested consumers have the given WTP values, under the objective. It
// is the package's one single-bundle price search; under RevenueObjective
// its Quote is the revenue-maximizing price on the grid.
//
// Implementation mirrors the histogram pricing of Sec. 4.2, additionally
// carrying per-bucket WTP sums so the surplus at each price level is
// available from the same O(m + T) pass (deterministic model) or the
// bucketed sigmoid evaluation (stochastic model).
func (p *Pricer) PriceUtility(wtps []float64, obj Objective) UtilityQuote {
	sc := p.getScratch()
	defer p.putScratch(sc)
	return p.PriceUtilityIn(sc, wtps, obj)
}

// PriceUtilityIn is PriceUtility with caller-owned scratch, for hot paths
// that price many bundles and want to avoid the pool round-trip.
func (p *Pricer) PriceUtilityIn(sc *Scratch, wtps []float64, obj Objective) UtilityQuote {
	sc.ensure(p.levels)
	maxW := 0.0
	for _, w := range wtps {
		if w > maxW {
			maxW = w
		}
	}
	if maxW <= 0 {
		return UtilityQuote{}
	}
	T := p.levels
	alpha := p.model.Alpha()
	if p.exact && !p.model.Deterministic() {
		// Exact O(m·T) evaluation of expected adopters and adopter WTP
		// mass at each level.
		best := UtilityQuote{}
		found := false
		for t := 1; t <= T; t++ {
			price := alpha * maxW * float64(t) / float64(T)
			var n, sw float64
			for _, w := range wtps {
				prob := p.model.Probability(price, w)
				n += prob
				sw += alpha * w * prob
			}
			q := evalUtility(price, n, sw, obj)
			if !found || q.Utility > best.Utility {
				best = q
				found = true
			}
		}
		return best
	}
	counts := sc.fcounts[:T+1]
	sums := sc.fsums[:T+1]
	for i := range counts {
		counts[i] = 0
		sums[i] = 0
	}
	Histogram(wtps, alpha, maxW, T, counts, sums)
	return p.priceHistogram(sc, counts, sums, maxW, obj)
}

// evalUtility assembles a UtilityQuote at one price level given the number
// of (expected) adopters n and their aggregate (effective) WTP sw.
func evalUtility(price, n, sw float64, obj Objective) UtilityQuote {
	profit := (price - obj.UnitCost) * n
	surplus := sw - price*n
	if surplus < 0 {
		surplus = 0 // float guard; adopters have WTP ≥ price
	}
	return UtilityQuote{
		Quote:   Quote{Price: price, Revenue: price * n, Adopters: n},
		Profit:  profit,
		Surplus: surplus,
		Utility: obj.ProfitWeight*profit + (1-obj.ProfitWeight)*surplus,
	}
}
