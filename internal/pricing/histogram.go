package pricing

// This file exposes the Sec. 4.2 pricing histogram as a reducible partial
// aggregate. A bundle's utility-maximizing price depends on its interested
// consumers only through (a) the maximum WTP and (b) the per-level histogram
// of counts and effective-WTP sums. Both reduce trivially across a
// partition of the consumer axis — max by max, histograms by element-wise
// addition — which is what lets a distributed evaluator price a bundle from
// per-span aggregates instead of shipping every consumer's WTP to the
// coordinator. Counts are integral, so their reduction is exact; the sums
// reduce with re-associated float addition, which is why cluster-vs-local
// equivalence is stated within 1e-9 rather than bitwise.

// MaxHistogramCells caps the cells, bundles × (levels+1), of one batched
// histogram reduction: a worker rejects a larger batch, and a distributed
// evaluate splits a longer lineup into batches under it (over 10,000
// bundles each at the default 100 levels).
const MaxHistogramCells = 1 << 20

// Histogram accumulates the pricing histogram of wtps into counts and sums,
// each of length levels+1: counts[t] is the number of consumers whose
// effective WTP α·w falls in bucket t of the [0, α·maxW] grid, sums[t] their
// total effective WTP. maxW must be the global maximum WTP of the bundle's
// full consumer vector (not just this slice), so that every partition
// buckets against the same grid. Buckets follow PriceUtility exactly.
func Histogram(wtps []float64, alpha, maxW float64, levels int, counts, sums []float64) {
	if maxW <= 0 {
		return
	}
	T := levels
	for _, w := range wtps {
		// A grid position past T, or a NaN one (α·w overflowing), lands in
		// the top bucket instead of converting to an out-of-range index.
		idx := T
		if f := alpha*w/(alpha*maxW)*float64(T) + bucketSlack; f < float64(T) {
			idx = int(f)
		}
		counts[idx]++
		sums[idx] += alpha * w
	}
}

// PriceUtilityFromHistogram prices a bundle from its (possibly reduced)
// pricing histogram: counts and sums as produced by Histogram against the
// global maximum WTP maxW, summed element-wise over any partition of the
// bundle's consumers. It returns the same quote PriceUtility computes from
// the raw WTP vector (exactly, under the deterministic model and
// RevenueObjective; within float re-association noise otherwise).
//
// The exact-sigmoid evaluation (SetExact with a stochastic model) needs the
// raw per-consumer values and cannot price from a histogram; callers in that
// configuration must gather the full vector instead.
func (p *Pricer) PriceUtilityFromHistogram(counts, sums []float64, maxW float64, obj Objective) UtilityQuote {
	if maxW <= 0 {
		return UtilityQuote{}
	}
	sc := p.getScratch()
	defer p.putScratch(sc)
	return p.priceHistogram(sc, counts, sums, maxW, obj)
}

// priceHistogram evaluates every price level against a filled histogram —
// the shared tail of PriceUtilityIn and PriceUtilityFromHistogram. sc is
// only used for the bucket-midpoint buffer of the stochastic path.
func (p *Pricer) priceHistogram(sc *Scratch, counts, sums []float64, maxW float64, obj Objective) UtilityQuote {
	T := p.levels
	alpha := p.model.Alpha()
	best := UtilityQuote{}
	found := false
	if p.model.Deterministic() {
		var n, sw float64
		for t := T; t >= 1; t-- {
			n += counts[t]
			sw += sums[t]
			price := alpha * maxW * float64(t) / float64(T)
			q := evalUtility(price, n, sw, obj)
			if !found || q.Utility > best.Utility {
				best = q
				found = true
			}
		}
		return best
	}
	// Stochastic model: expected adopters and expected adopter WTP mass at
	// each price level, via bucket midpoints.
	mids := sc.mids[:T+1]
	for t := 0; t <= T; t++ {
		mids[t] = (float64(t) + 0.5) * maxW / float64(T)
		if mids[t] > maxW {
			mids[t] = maxW
		}
	}
	for t := 1; t <= T; t++ {
		price := alpha * maxW * float64(t) / float64(T)
		var n, sw float64
		for s := 0; s <= T; s++ {
			if counts[s] == 0 {
				continue
			}
			prob := p.model.Probability(price, mids[s])
			n += counts[s] * prob
			sw += sums[s] * prob
		}
		q := evalUtility(price, n, sw, obj)
		if !found || q.Utility > best.Utility {
			best = q
			found = true
		}
	}
	return best
}
