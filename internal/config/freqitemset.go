package config

import (
	"fmt"
	"sort"
	"time"

	"bundling/internal/fim"
	"bundling/internal/wtp"
)

// defaultMaxItemsets caps mined maximal itemsets when the caller does not;
// a safety valve against dense transaction data blowing up the search.
const defaultMaxItemsets = 50000

// FreqItemsetOptions configures the frequent-itemset bundling baseline.
type FreqItemsetOptions struct {
	// MinSupport is the relative minimum support (fraction of consumers).
	// The paper found 0.1% to produce the highest revenue.
	MinSupport float64
	// MaxResults caps the number of mined maximal itemsets (0 = unlimited).
	MaxResults int
}

// DefaultFreqItemsetOptions returns the paper's tuned setting (Sec. 6.1.3).
func DefaultFreqItemsetOptions() FreqItemsetOptions {
	return FreqItemsetOptions{MinSupport: 0.001}
}

// FreqItemset runs the "Frequently Bought Together" baseline (Sec. 6.1.3):
// treat each consumer as a transaction of the items she has non-zero WTP
// for, mine maximal frequent itemsets (our MAFIA substitute), then greedily
// select the itemset with the highest absolute revenue gain over its
// components, discarding overlapping itemsets, until all items are covered;
// remaining items are sold individually. Individual items are admitted as
// candidates regardless of support, favoring the baseline as the paper does.
// Works for both pure and mixed bundling (params.Strategy). One-shot form;
// sessions use Solver.Solve(FreqItemsetAlgorithm(opts)).
func FreqItemset(w *wtp.Matrix, params Params, opts FreqItemsetOptions) (*Configuration, error) {
	s, err := NewSolver(w, params)
	if err != nil {
		return nil, err
	}
	return s.Solve(FreqItemsetAlgorithm(opts))
}

// freqItemset is the baseline on a run engine. The consumers' transactions
// come from the session cache, so repeated solves re-mine but never
// re-extract.
func (e *engine) freqItemset(opts FreqItemsetOptions) (*Configuration, error) {
	if opts.MinSupport < 0 || opts.MinSupport > 1 {
		return nil, fmt.Errorf("config: minimum support %g outside [0,1]", opts.MinSupport)
	}
	start := time.Now()
	txs := e.s.transactions()
	minSup := int(opts.MinSupport * float64(e.w.Consumers()))
	if minSup < 2 {
		// An itemset bought by a single consumer is not "frequently bought
		// together"; the floor also keeps mining tractable on tiny corpora.
		minSup = 2
	}
	maxSize := 0
	if e.params.K != Unlimited {
		maxSize = e.params.K
	}
	maxResults := opts.MaxResults
	if maxResults == 0 {
		maxResults = defaultMaxItemsets
	}
	itemsets, err := fim.MineMaximal(e.w.Items(), txs, fim.Config{
		MinSupport: minSup,
		MaxSize:    maxSize,
		MaxResults: maxResults,
	})
	if err != nil {
		return nil, err
	}

	// The session's priced singletons are both the fallback offers and the
	// "components" that a candidate itemset must beat.
	singles := e.singletons()

	// Evaluate each multi-item candidate's absolute gain over components.
	type candidate struct {
		items []int
		node  *node
		gain  float64
	}
	var cands []candidate
	for _, is := range itemsets {
		if err := e.canceled(); err != nil {
			return nil, err
		}
		if len(is.Items) < 2 {
			continue
		}
		n, gain := e.evalItemset(is.Items, singles)
		if n != nil && gain > minGain {
			cands = append(cands, candidate{items: is.Items, node: n, gain: gain})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].gain != cands[b].gain {
			return cands[a].gain > cands[b].gain
		}
		return len(cands[a].items) < len(cands[b].items)
	})
	covered := make([]bool, e.w.Items())
	var chosen []*node
	iterations := 0
	for _, c := range cands {
		overlap := false
		for _, i := range c.items {
			if covered[i] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		for _, i := range c.items {
			covered[i] = true
		}
		chosen = append(chosen, c.node)
		iterations++
	}
	// Remaining items sold individually.
	for i, n := range singles {
		if !covered[i] {
			chosen = append(chosen, n)
		}
	}
	total := 0.0
	for _, n := range chosen {
		total += n.revenue
	}
	trace := []IterationStat{{Iteration: iterations, Revenue: total, Elapsed: time.Since(start), Bundles: len(chosen)}}
	return e.finish(chosen, iterations, trace), nil
}

// evalItemset prices a mined itemset as a bundle against its singleton
// components: standalone pricing for pure bundling, the incremental offer
// (bundle + all singletons at frozen prices) for mixed bundling. The
// returned gain is in seller-utility units, like every merge gain.
//
// The candidate is evaluated entirely in the run's mergeScratch — the
// combined component state accumulates via aligned pointer walks over each
// singleton's cached vectors — and a node is materialized only when the
// itemset survives the gain filter, so losing itemsets cost no heap churn.
func (e *engine) evalItemset(items []int, singles []*node) (*node, float64) {
	sc := e.ctx.sc
	sc.items = append(sc.items[:0], items...)
	sort.Ints(sc.items)
	sc.ids, sc.vals = e.bundleVector(sc.items, e.params.Theta, sc.ids, sc.vals)
	obj := e.objective(sc.items)
	compUtil := 0.0
	for _, i := range items {
		compUtil += singles[i].util
	}
	switch e.params.Strategy {
	case Pure:
		uq := e.pr.PriceUtilityIn(e.ctx.psc, sc.vals, obj)
		gain := uq.Utility - compUtil
		if gain <= minGain {
			return nil, gain
		}
		n := materialize(sc)
		n.quote = uq.Quote
		n.unitC = obj.UnitCost
		n.revenue, n.profit, n.surplus, n.util = uq.Revenue, uq.Profit, uq.Surplus, uq.Utility
		return n, gain
	default: // Mixed
		// Combined current state of the singleton components (disjoint, so
		// payments and surpluses add), plus the paper's price window.
		sc.resetState(len(sc.ids))
		var lo, hi float64
		for _, i := range items {
			s := singles[i]
			sc.addState(sc.ids, s)
			if s.quote.Price > lo {
				lo = s.quote.Price
			}
			hi += s.quote.Price
		}
		mq := e.priceMixed(e.ctx.psc, sc, sc.vals, lo, hi, obj.UnitCost)
		delta := mq.Utility - mq.BaselineUtility
		if !mq.Feasible || delta <= minGain {
			return nil, 0
		}
		// The itemset survives: materialize and commit the new state, every
		// consumer re-resolving at the chosen price.
		n := materialize(sc)
		n.unitC = obj.UnitCost
		e.commitMixed(n, sc, bundleQuote(mq), true)
		for _, i := range items {
			n.comps = append(n.comps, singles[i].asBundle())
		}
		return n, delta
	}
}
