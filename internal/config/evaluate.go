package config

import (
	"context"
	"fmt"
	"sort"
	"time"

	"bundling/internal/obs"
	"bundling/internal/pricing"
	"bundling/internal/wtp"
)

// Evaluate prices a caller-proposed bundle configuration — the "what-if"
// counterpart of the search algorithms. offers lists the item sets to put
// on sale; prices are chosen optimally by the engine under params.
//
// The offers must satisfy the structural condition of the chosen strategy
// (Problem 1/2 condition 2): pairwise disjoint under pure bundling, laminar
// (any two offers disjoint or nested) under mixed bundling. Unlike the
// optimization problems, the offers need not cover the whole item universe;
// uncovered items simply earn nothing, which lets sellers compare partial
// lineups.
//
// Under mixed bundling the offers are priced bottom-up: smaller offers
// first at their standalone optimal price, then each subsuming bundle
// conditioned on the offers it contains (the paper's incremental policy
// and price window), with consumers re-resolving by the upgrade rule.
func Evaluate(w *wtp.Matrix, offers [][]int, params Params) (*Configuration, error) {
	s, err := NewSolver(w, params)
	if err != nil {
		return nil, err
	}
	return s.Evaluate(offers)
}

// Evaluate prices a caller-proposed configuration on the session — the
// serving-path entry point for what-if traffic: many Evaluate calls (and
// Solve calls) run concurrently against one indexed matrix.
func (s *Solver) Evaluate(offers [][]int) (*Configuration, error) {
	return s.EvaluateContext(context.Background(), offers)
}

// EvaluateContext is Evaluate with a request context: pricing aborts with
// the context's error between offers once the context is canceled or past
// its deadline, and a distributed session derives its worker RPC deadlines
// from it.
func (s *Solver) EvaluateContext(ctx context.Context, offers [][]int) (*Configuration, error) {
	ctx, sp := obs.StartSpan(ctx, "evaluate")
	sp.Tag("offers", len(offers))
	defer sp.End()
	e := s.newEngineCtx(ctx)
	defer e.release()
	start := time.Now()
	sets, err := normalizeOffers(s.w.Items(), offers)
	if err != nil {
		return nil, err
	}
	if err := checkStructure(sets, s.params.Strategy); err != nil {
		return nil, err
	}
	switch s.params.Strategy {
	case Pure:
		cfg := &Configuration{Strategy: Pure, Iterations: 1}
		var ids []int
		var vals []float64
		for _, items := range sets {
			if err := e.canceled(); err != nil {
				return nil, err
			}
			theta := e.params.Theta
			if len(items) == 1 {
				theta = 0
			}
			ids, vals = e.bundleVector(items, theta, ids, vals)
			uq := e.pr.PriceUtilityIn(e.ctx.psc, vals, e.objective(items))
			cfg.Bundles = append(cfg.Bundles, Bundle{Items: items, Price: uq.Price, Revenue: uq.Revenue})
			cfg.Revenue += uq.Revenue
			cfg.Profit += uq.Profit
			cfg.Surplus += uq.Surplus
			cfg.Utility += uq.Utility
		}
		cfg.Trace = []IterationStat{{Iteration: 1, Revenue: cfg.Revenue, Elapsed: time.Since(start), Bundles: len(cfg.Bundles)}}
		return cfg, nil
	default:
		return e.evaluateMixed(sets, start)
	}
}

// Aggregator computes distributed pricing aggregates for a lineup: each
// offer's global maximum bundle WTP and its reduced pricing histogram
// against that maximum (see pricing.Histogram). A scatter/gather
// implementation fans each call out to the workers owning the corpus's
// stripe spans and reduces — maxima by max, histograms by element-wise
// addition — so the coordinator prices a lineup from O(T) aggregate state
// per offer instead of gathering O(M) consumer vectors, and each call is one
// scatter round whatever the lineup's size. Implementations must be
// infallible: a span whose worker is unreachable is computed from a local
// replica, never dropped.
// Like StripeExecutor, both methods receive the run's request context to
// derive RPC deadlines from; a done context must still yield a correct
// result (local fallback), with run abortion left to the engine.
type Aggregator interface {
	// BundleMax sets maxW[k] to the maximum Eq. 1 WTP of sets[k] under
	// thetas[k] over all consumers (0 when no consumer is interested).
	BundleMax(ctx context.Context, sets [][]int, thetas []float64, maxW []float64)
	// BundleHistogram accumulates the pricing histogram of every sets[k]
	// against its global maximum maxW[k] > 0 into counts and sums, exactly
	// as pricing.Histogram does per span. Both hold len(sets)·(levels+1)
	// entries, bundle-major (set k's levels+1 entries start at
	// k·(levels+1)), zeroed by the caller.
	BundleHistogram(ctx context.Context, sets [][]int, thetas, maxW []float64, counts, sums []float64)
}

// EvaluateAggregated prices a pure-bundling offer family from reduced
// pricing histograms instead of gathered consumer vectors — the
// scatter/gather evaluate path of a distributed solver. A lineup costs two
// aggregate rounds, every offer's maximum and then every interested offer's
// histogram, of O(T) response data per offer and span rather than shipping
// every interested consumer; a lineup past pricing.MaxHistogramCells prices
// its histograms in batches under that cap. Results match Evaluate within
// float re-association (the histogram sums reduce in a different order);
// bundle prices and revenues under the paper's default deterministic model
// and objective are identical.
//
// The mixed strategy carries per-consumer market state between offers and
// cannot be priced from histograms; mixed evaluates (and the exact-sigmoid
// ablation, which needs raw per-consumer values) must go through Evaluate.
func (s *Solver) EvaluateAggregated(offers [][]int, agg Aggregator) (*Configuration, error) {
	return s.EvaluateAggregatedContext(context.Background(), offers, agg)
}

// EvaluateAggregatedContext is EvaluateAggregated with a request context;
// the context is checked before each aggregate round, and see
// EvaluateContext for the rest of the cancellation contract.
func (s *Solver) EvaluateAggregatedContext(ctx context.Context, offers [][]int, agg Aggregator) (*Configuration, error) {
	if s.params.Strategy != Pure {
		return nil, fmt.Errorf("config: aggregated evaluation supports pure bundling only")
	}
	if s.params.ExactSigmoid && !s.params.Model.Deterministic() {
		return nil, fmt.Errorf("config: aggregated evaluation cannot price under the exact-sigmoid ablation")
	}
	ctx, sp := obs.StartSpan(ctx, "evaluate")
	sp.Tag("offers", len(offers))
	sp.Tag("aggregated", true)
	defer sp.End()
	e := s.newEngineCtx(ctx)
	defer e.release()
	start := time.Now()
	sets, err := normalizeOffers(s.w.Items(), offers)
	if err != nil {
		return nil, err
	}
	if err := checkStructure(sets, Pure); err != nil {
		return nil, err
	}
	if err := e.canceled(); err != nil {
		return nil, err
	}
	thetas := make([]float64, len(sets))
	for k, items := range sets {
		thetas[k] = thetaFor(e.params.Theta, len(items))
	}
	maxW := make([]float64, len(sets))
	agg.BundleMax(e.reqCtx, sets, thetas, maxW)
	// Only offers some consumer is interested in need a histogram; the rest
	// price at zero.
	var live []int
	var lSets [][]int
	var lThetas, lMax []float64
	for k, m := range maxW {
		if m > 0 {
			live, lSets = append(live, k), append(lSets, sets[k])
			lThetas, lMax = append(lThetas, thetas[k]), append(lMax, m)
		}
	}
	quotes := make([]pricing.UtilityQuote, len(sets))
	L := s.pr.Levels() + 1
	batch := max(1, pricing.MaxHistogramCells/L)
	for lo := 0; lo < len(live); lo += batch {
		if err := e.canceled(); err != nil {
			return nil, err
		}
		hi := min(lo+batch, len(live))
		counts, sums := make([]float64, (hi-lo)*L), make([]float64, (hi-lo)*L)
		agg.BundleHistogram(e.reqCtx, lSets[lo:hi], lThetas[lo:hi], lMax[lo:hi], counts, sums)
		for j, k := range live[lo:hi] {
			quotes[k] = s.pr.PriceUtilityFromHistogram(counts[j*L:(j+1)*L], sums[j*L:(j+1)*L], maxW[k], e.objective(sets[k]))
		}
	}
	cfg := &Configuration{Strategy: Pure, Iterations: 1}
	for k, items := range sets {
		uq := quotes[k]
		cfg.Bundles = append(cfg.Bundles, Bundle{Items: items, Price: uq.Price, Revenue: uq.Revenue})
		cfg.Revenue += uq.Revenue
		cfg.Profit += uq.Profit
		cfg.Surplus += uq.Surplus
		cfg.Utility += uq.Utility
	}
	cfg.Trace = []IterationStat{{Iteration: 1, Revenue: cfg.Revenue, Elapsed: time.Since(start), Bundles: len(cfg.Bundles)}}
	return cfg, nil
}

// evaluateMixed prices a laminar offer family bottom-up.
func (e *engine) evaluateMixed(sets [][]int, start time.Time) (*Configuration, error) {
	// Ascending size; ties by first item keep the order deterministic.
	sort.SliceStable(sets, func(i, j int) bool { return len(sets[i]) < len(sets[j]) })
	if err := e.canceled(); err != nil {
		return nil, err
	}
	// Every offer's vector comes from its own items, never from its parts,
	// so the whole lineup's vectors are fetched in one call up front.
	thetas := make([]float64, len(sets))
	for k, items := range sets {
		thetas[k] = thetaFor(e.params.Theta, len(items))
	}
	ids, vals := e.bundleVectors(sets, thetas)
	priced := make([]*node, 0, len(sets))
	isTop := make([]bool, len(sets))
	for si, items := range sets {
		if err := e.canceled(); err != nil {
			return nil, err
		}
		// Maximal already-priced strict subsets of this offer; laminarity
		// makes them pairwise disjoint.
		var parts []*node
		covered := make(map[int]bool, len(items))
		for pi := len(priced) - 1; pi >= 0; pi-- {
			p := priced[pi]
			if len(p.items) >= len(items) || !isSubsetSorted(p.items, items) {
				continue
			}
			if covered[p.items[0]] {
				continue // nested inside an already-collected part
			}
			parts = append(parts, p)
			for _, it := range p.items {
				covered[it] = true
			}
		}
		n := &node{items: items, fresh: true, ids: ids[si], vals: vals[si]}
		n.unitC = e.objective(items).UnitCost
		if len(parts) == 0 {
			// Leaf offer: standalone optimal price.
			uq := e.pr.PriceUtilityIn(e.ctx.psc, n.vals, e.objective(items))
			n.quote = uq.Quote
			e.initState(n)
		} else {
			e.priceOverParts(n, parts)
			for _, p := range parts {
				for pi := range priced {
					if priced[pi] == p {
						isTop[pi] = false
					}
				}
				n.comps = append(n.comps, p.comps...)
				n.comps = append(n.comps, p.asBundle())
			}
		}
		priced = append(priced, n)
		isTop[si] = true
	}
	cfg := &Configuration{Strategy: Mixed, Iterations: 1}
	for pi, n := range priced {
		if !isTop[pi] {
			continue
		}
		cfg.Bundles = append(cfg.Bundles, n.asBundle())
		cfg.Components = append(cfg.Components, n.comps...)
		cfg.Revenue += n.revenue
		cfg.Profit += n.profit
		cfg.Surplus += n.surplus
		cfg.Utility += n.util
	}
	sort.Slice(cfg.Bundles, func(i, j int) bool { return cfg.Bundles[i].Items[0] < cfg.Bundles[j].Items[0] })
	cfg.Trace = []IterationStat{{Iteration: 1, Revenue: cfg.Revenue, Elapsed: time.Since(start), Bundles: len(cfg.Bundles)}}
	return cfg, nil
}

// priceOverParts prices node n's bundle over its already-priced disjoint
// parts (the incremental policy) and commits the combined consumer state.
// Items of n not covered by any part contribute WTP to the bundle but have
// no standalone offer.
func (e *engine) priceOverParts(n *node, parts []*node) {
	sc := e.ctx.sc
	sc.resetState(len(n.ids))
	var lo, hi float64
	for _, p := range parts {
		sc.addState(n.ids, p)
		if p.quote.Price > lo {
			lo = p.quote.Price
		}
		hi += p.quote.Price
	}
	if len(parts) == 1 {
		// A single part gives a degenerate Guiltinan window (lo, lo); open
		// the top so the bundle can still price above the part.
		hi = lo * 2
	}
	mq := e.priceMixed(e.ctx.psc, sc, n.vals, lo, hi, n.unitC)
	e.commitMixed(n, sc, bundleQuote(mq), mq.Feasible)
}

// thetaFor applies θ only to true bundles.
func thetaFor(theta float64, size int) float64 {
	if size <= 1 {
		return 0
	}
	return theta
}

// normalizeOffers validates item ids, sorts each offer, and rejects
// duplicates within an offer or duplicate offers.
func normalizeOffers(items int, offers [][]int) ([][]int, error) {
	if len(offers) == 0 {
		return nil, fmt.Errorf("config: no offers to evaluate")
	}
	out := make([][]int, len(offers))
	seen := make(map[string]bool, len(offers))
	for oi, off := range offers {
		if len(off) == 0 {
			return nil, fmt.Errorf("config: offer %d is empty", oi)
		}
		s := append([]int(nil), off...)
		sort.Ints(s)
		for i, it := range s {
			if it < 0 || it >= items {
				return nil, fmt.Errorf("config: offer %d refers to item %d outside [0,%d)", oi, it, items)
			}
			if i > 0 && s[i-1] == it {
				return nil, fmt.Errorf("config: offer %d lists item %d twice", oi, it)
			}
		}
		key := fmt.Sprint(s)
		if seen[key] {
			return nil, fmt.Errorf("config: duplicate offer %v", s)
		}
		seen[key] = true
		out[oi] = s
	}
	return out, nil
}

// checkStructure enforces Problem 1/2 condition 2: disjoint offers under
// pure bundling, laminar offers under mixed bundling.
func checkStructure(sets [][]int, strategy Strategy) error {
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			a, b := sets[i], sets[j]
			if !idsIntersect(a, b) {
				continue
			}
			if strategy == Pure {
				return fmt.Errorf("config: pure bundling requires disjoint offers; %v and %v overlap", a, b)
			}
			if !isSubsetSorted(a, b) && !isSubsetSorted(b, a) {
				return fmt.Errorf("config: mixed bundling requires nested or disjoint offers; %v and %v partially overlap", a, b)
			}
		}
	}
	return nil
}

// isSubsetSorted reports whether sub ⊆ super for ascending slices.
func isSubsetSorted(sub, super []int) bool {
	i, j := 0, 0
	for i < len(sub) && j < len(super) {
		switch {
		case sub[i] == super[j]:
			i++
			j++
		case sub[i] > super[j]:
			j++
		default:
			return false
		}
	}
	return i == len(sub)
}
