package config

import (
	"fmt"
	"sort"

	"bundling/internal/pricing"
	"bundling/internal/wtp"
)

// node is a bundle under construction inside the iterative algorithms. It
// caches the bundle's interested-consumer vector and pricing so merge
// evaluations do not rescan the WTP matrix for unchanged bundles.
//
// Under mixed bundling a node additionally carries per-consumer market
// state for its subtree of offers (the bundle itself plus every retained
// sub-bundle): pay[j] is consumer ids[j]'s total expected payment within
// the subtree, surp[j] the deterministic surplus of those purchases (the
// choice currency of the upgrade rule), cost[j] the expected variable cost
// of serving them and esur[j] the expected consumer surplus. Merge deltas
// are computed against this state — the paper's Table 6 accounting — which
// keeps every consumer counted exactly once and total revenue bounded by
// total willingness to pay.
type node struct {
	items []int     // ascending item ids
	ids   []int     // interested consumers, ascending
	vals  []float64 // bundle WTP per interested consumer (Eq. 1)
	quote pricing.Quote
	// uq is the standalone utility quote of a singleton prototype
	// (PriceUtility over the raw vector); the Components baseline reads it
	// directly, independent of the mixed-bundling state below.
	uq pricing.UtilityQuote
	// revenue, profit, surplus and util are the node subtree's expected
	// totals; util (= α·profit + (1-α)·surplus) is the currency every
	// merge gain is measured in. Under the paper's default objective
	// util == profit == revenue.
	revenue float64
	profit  float64
	surplus float64
	util    float64
	unitC   float64 // bundle unit cost (Σ item costs)
	// Mixed-bundling per-consumer state (nil under pure bundling):
	pay  []float64
	surp []float64
	cost []float64
	esur []float64
	// comps are the retained sub-bundles (mixed only), flattened over the
	// node's merge history; they form the X'_I output.
	comps []Bundle
	// id is the node's identity within its session lineage: equal
	// identities mean equal content (see lineage).
	id    ident
	fresh bool // formed in the most recent iteration
	dead  bool // merged away (greedy bookkeeping)
}

// mergeScratch holds the reusable buffers one evaluation thread needs to
// price a candidate merge without allocating: the merged item list, the
// merged interested-consumer vector, and (mixed bundling) the combined
// per-consumer market state of the bundle's retained parts. Pricing a
// candidate allocates nothing; merge builds a node only for a merge an
// algorithm takes, so the O(N²) candidates cost zero heap churn.
type mergeScratch struct {
	items []int
	ids   []int
	vals  []float64
	pay   []float64
	surp  []float64
	cost  []float64
	esur  []float64
}

// grow returns buf resized to n, reusing capacity.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// resetState sizes the scratch market state to m consumers, all zero.
func (sc *mergeScratch) resetState(m int) {
	sc.pay, sc.surp, sc.cost, sc.esur = grow(sc.pay, m), grow(sc.surp, m), grow(sc.cost, m), grow(sc.esur, m)
	clear(sc.pay)
	clear(sc.surp)
	clear(sc.cost)
	clear(sc.esur)
}

// combineState sets the scratch market state, aligned with the union
// sc.ids of a and b, to the two parents' combined state.
func (sc *mergeScratch) combineState(a, b *node) {
	sc.resetState(len(sc.ids))
	sc.addState(sc.ids, a)
	sc.addState(sc.ids, b)
}

// addState adds part p's per-consumer market state into the scratch state,
// which is aligned with ids: the ascending consumer axis of a bundle
// containing p, so a superset of p.ids (every consumer interested in a
// part is interested in the bundle).
func (sc *mergeScratch) addState(ids []int, p *node) {
	j := 0
	for k, id := range p.ids {
		for j < len(ids) && ids[j] < id {
			j++
		}
		if j == len(ids) {
			return
		}
		if ids[j] != id {
			continue
		}
		sc.pay[j] += p.pay[k]
		sc.surp[j] += p.surp[k]
		sc.cost[j] += p.cost[k]
		sc.esur[j] += p.esur[k]
	}
}

// objective assembles the pricing objective for a bundle: the configured
// profit weight α and the bundle's summed unit cost.
func (e *engine) objective(items []int) pricing.Objective {
	obj := pricing.Objective{ProfitWeight: e.params.ProfitWeight}
	if e.params.UnitCosts != nil {
		for _, i := range items {
			obj.UnitCost += e.params.UnitCosts[i]
		}
	}
	return obj
}

// initState populates a node's per-consumer market state from its
// standalone quote: each consumer's expected payment at the node's price,
// the deterministic surplus of buying it, and the cost/surplus expectations.
func (e *engine) initState(n *node) {
	n.allocState()
	model := e.params.Model
	alpha := model.Alpha()
	var pay, cost, sur float64
	for j, w := range n.vals {
		p := model.Probability(n.quote.Price, w)
		n.pay[j] = n.quote.Price * p
		n.cost[j] = n.unitC * p
		if s := alpha*w - n.quote.Price; s > 0 && p > 0 {
			n.surp[j] = s
			n.esur[j] = s * p
		}
		pay += n.pay[j]
		cost += n.cost[j]
		sur += n.esur[j]
	}
	e.setTotals(n, pay, cost, sur)
}

// allocState gives n zeroed per-consumer market state, one backing array
// for its four vectors.
func (n *node) allocState() {
	m := len(n.ids)
	buf := make([]float64, 4*m)
	n.pay, n.surp, n.cost, n.esur = buf[:m:m], buf[m:2*m:2*m], buf[2*m:3*m:3*m], buf[3*m:]
}

// setTotals stores a mixed-bundling node's subtree totals from its summed
// expected payment, serving cost and consumer surplus.
func (e *engine) setTotals(n *node, pay, cost, sur float64) {
	n.revenue = pay
	n.profit = pay - cost
	n.surplus = sur
	n.util = e.params.ProfitWeight*n.profit + (1-e.params.ProfitWeight)*n.surplus
}

// commitMixed stores node n's mixed-bundling state with its bundle on sale
// at quote q, or with no bundle on sale when !sell: every consumer
// re-resolves by the upgrade rule against cur, their combined state under
// the offers n retains (aligned with n.ids), and n's subtree totals are
// summed from the result.
func (e *engine) commitMixed(n *node, cur *mergeScratch, q pricing.Quote, sell bool) {
	n.allocState()
	alpha := e.params.Model.Alpha()
	var pay, cost, sur float64
	for j := range n.ids {
		pj, prob, switched := cur.pay[j], 0.0, false
		if sell {
			pj, prob, switched = e.pr.ResolveSwitch(n.vals[j], cur.pay[j], cur.surp[j], q.Price)
		}
		n.pay[j] = pj
		if switched {
			n.cost[j] = n.unitC * prob
			if s := alpha*n.vals[j] - q.Price; s > 0 {
				n.surp[j] = s
				n.esur[j] = s * prob
			}
		} else {
			n.surp[j], n.cost[j], n.esur[j] = cur.surp[j], cur.cost[j], cur.esur[j]
		}
		pay += pj
		cost += n.cost[j]
		sur += n.esur[j]
	}
	n.quote = q
	e.setTotals(n, pay, cost, sur)
}

// priceMixed prices a bundle with consumer WTPs wb over its disjoint
// retained parts (the paper's incremental policy): cur holds the parts'
// combined per-consumer state, and (lo, hi) is the price window.
func (e *engine) priceMixed(psc *pricing.Scratch, cur *mergeScratch, wb []float64, lo, hi, unitC float64) pricing.MixedQuote {
	return e.pr.PriceMixedIn(psc, pricing.MixedOffer{
		CurPay: cur.pay, CurSurplus: cur.surp, CurCost: cur.cost, CurESurplus: cur.esur,
		WB: wb, Lo: lo, Hi: hi, BundleCost: unitC,
		Obj: pricing.Objective{ProfitWeight: e.params.ProfitWeight, UnitCost: unitC},
	})
}

// bundleQuote is the quote a mixed-bundling node carries: its bundle price
// and the revenue it adds over its parts (the paper's "Add. revenue").
func bundleQuote(mq pricing.MixedQuote) pricing.Quote {
	return pricing.Quote{Price: mq.Price, Revenue: mq.Revenue - mq.Baseline, Adopters: mq.Adopters}
}

// mergeable applies the size cap and the paper's common-interest pruning.
// The pruning is valid only for θ ≤ 0: with independent or substitute
// items, no consumer interested in just one side ever yields extra bundle
// revenue; with complements (θ > 0) a bundle can profit even without a
// common consumer, so the filter is skipped.
func (e *engine) mergeable(a, b *node) bool {
	if len(a.items)+len(b.items) > e.k {
		return false
	}
	if e.params.Theta > 0 || e.params.DisablePruning {
		return true
	}
	return idsIntersect(a.ids, b.ids)
}

// vectorScale returns the factor that lifts a parent node's cached vals to
// the merged bundle's Eq. 1 terms. A multi-item parent's vector already
// carries the (1+θ) adjustment; a singleton's vector is raw (θ never
// applies to one item), so it picks the adjustment up here.
func (e *engine) vectorScale(n *node) float64 {
	if len(n.items) == 1 {
		return 1 + e.params.Theta
	}
	return 1
}

// mergeVector builds the merged bundle's interested-consumer vector into
// the dst slices: as the union of the parents' cached vectors, or by a
// postings rescan on the reference path. The union reads no matrix data,
// so it runs in process in every deployment.
func (e *engine) mergeVector(a, b *node, items []int, dstIDs []int, dstVals []float64) ([]int, []float64) {
	if e.incremental {
		return wtp.UnionVectors(a.ids, a.vals, e.vectorScale(a), b.ids, b.vals, e.vectorScale(b), dstIDs, dstVals)
	}
	return e.w.BundleVector(items, e.params.Theta, dstIDs, dstVals)
}

// mergePart is node n as one side of a candidate merge for the mixed
// pricing kernel: its cached vector at the merged bundle's scale and its
// per-consumer market state.
func (e *engine) mergePart(n *node) pricing.MergePart {
	return pricing.MergePart{IDs: n.ids, Vals: n.vals, Scale: e.vectorScale(n), Pay: n.pay, Surplus: n.surp, Cost: n.cost, ESurplus: n.esur}
}

// evalMerge prices the merge of a and b entirely in ctx's scratch, so
// concurrent evaluations each own their buffers (the shared Pricer is
// stateless). It returns the merge's quote and its utility gain over
// keeping a and b as they are; ok is false when the merge is infeasible or,
// unless keepAll (the greedy run-to-end variant needs non-gaining
// candidates too), not gaining. Under mixed bundling the quote carries
// only the bundle's node quote (see bundleQuote). No node is built: merge
// builds it from the quote once an algorithm takes the pair.
func (e *engine) evalMerge(ctx *workerCtx, a, b *node, keepAll bool) (q pricing.UtilityQuote, gain float64, ok bool) {
	sc := ctx.sc
	sc.items = mergeItemsInto(sc.items, a.items, b.items)
	obj := e.objective(sc.items)
	if e.params.Strategy == Pure {
		sc.ids, sc.vals = e.mergeVector(a, b, sc.items, sc.ids, sc.vals)
		q = e.pr.PriceUtilityIn(ctx.psc, sc.vals, obj)
		gain = q.Utility - a.util - b.util
		return q, gain, keepAll || gain > minGain
	}
	// Mixed: price the new bundle against the combined current state of
	// both subtrees (their offers are item-disjoint, so states add), within
	// the paper's price window (max component price, sum of component
	// prices). The kernel forms the union and the combined state as it
	// prices; the reference path builds both in scratch first.
	lo, hi := max(a.quote.Price, b.quote.Price), a.quote.Price+b.quote.Price
	var mq pricing.MixedQuote
	if e.incremental {
		pa, pb := e.mergePart(a), e.mergePart(b)
		mq = e.pr.PriceMixedMerge(ctx.psc, &pa, &pb, lo, hi, obj)
	} else {
		sc.ids, sc.vals = e.mergeVector(a, b, sc.items, sc.ids, sc.vals)
		sc.combineState(a, b)
		mq = e.priceMixed(ctx.psc, sc, sc.vals, lo, hi, obj.UnitCost)
	}
	gain = mq.Utility - mq.BaselineUtility
	if !mq.Feasible || gain <= minGain {
		return q, 0, false
	}
	return pricing.UtilityQuote{Quote: bundleQuote(mq)}, gain, true
}

// merge builds the merged node of a and b from candidate r, for a merge an
// algorithm takes: the node takes r's identity, and its pricing is r's
// quote. The union is re-derived from the parents' vectors and, under
// mixed bundling, every consumer re-resolves at the quoted price; pricing
// is deterministic, so the node is exactly the candidate evalMerge priced.
func (e *engine) merge(a, b *node, r pairResult) *node {
	e.built++
	sc := e.ctx.sc
	sc.items = mergeItemsInto(sc.items, a.items, b.items)
	sc.ids, sc.vals = e.mergeVector(a, b, sc.items, sc.ids, sc.vals)
	n := materialize(sc)
	n.id = r.id
	n.unitC = e.objective(n.items).UnitCost
	q := r.q
	if e.params.Strategy == Pure {
		n.quote = q.Quote
		n.revenue, n.profit, n.surplus, n.util = q.Revenue, q.Profit, q.Surplus, q.Utility
		return n
	}
	sc.combineState(a, b)
	e.commitMixed(n, sc, q.Quote, true)
	n.comps = append(n.comps, a.comps...)
	n.comps = append(n.comps, b.comps...)
	n.comps = append(n.comps, a.asBundle(), b.asBundle())
	return n
}

// materialize copies a scratch candidate into a fresh node; the
// strategy-specific pricing state is filled in by the caller.
func materialize(sc *mergeScratch) *node {
	return &node{
		items: append([]int(nil), sc.items...),
		ids:   append([]int(nil), sc.ids...),
		vals:  append([]float64(nil), sc.vals...),
		fresh: true,
	}
}

// asBundle converts a node to its output Bundle form. For a mixed-bundling
// merge node, Revenue is the incremental revenue the bundle added over its
// components (the paper's "Add. revenue" column).
func (n *node) asBundle() Bundle {
	return Bundle{Items: append([]int(nil), n.items...), Price: n.quote.Price, Revenue: n.quote.Revenue}
}

// finish assembles the Configuration from surviving nodes.
func (e *engine) finish(nodes []*node, iterations int, trace []IterationStat) *Configuration {
	cfg := &Configuration{Strategy: e.params.Strategy, Iterations: iterations, Trace: trace}
	for _, n := range nodes {
		if n.dead {
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
	return cfg
}

func errCostCount(got, want int) error {
	return fmt.Errorf("config: %d unit costs for %d items", got, want)
}

// mergeItemsInto unions two ascending item lists into dst, reusing its
// capacity.
func mergeItemsInto(dst, a, b []int) []int {
	out := dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// idsIntersect reports whether two ascending id lists share an element.
func idsIntersect(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}
