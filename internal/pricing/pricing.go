// Package pricing finds the price of a single bundle that maximizes the
// seller's utility α·profit + (1−α)·surplus (paper Secs. 1 and 4.2; the
// revenue objective, α = 1 at zero cost, is the paper's evaluation), and
// evaluates mixed-bundling offers.
//
// PriceUtility is the one single-bundle search. It scans a discretized price
// list of T levels (the paper uses T = 100 and observes larger T yields no
// meaningful revenue). Consumers are hashed into equi-distanced buckets by
// willingness to pay, so the optimal price of a bundle with m interested
// consumers costs O(m + T) under the deterministic step model, matching the
// paper's O(M) pricing claim. Under the sigmoid model the search is a
// bucketed O(m + T²) approximation (default) or an exact O(m·T) evaluation.
package pricing

import (
	"fmt"
	"sync"

	"bundling/internal/adoption"
)

// DefaultLevels is the paper's default number of price levels T.
const DefaultLevels = 100

// MaxLevels caps T. Every pricing scratch holds O(T) level buffers, so an
// unbounded T from outside the program could make each one gigabytes.
const MaxLevels = 1 << 16

// bucketSlack absorbs float rounding when hashing a WTP equal to a grid
// price into its bucket, so "w == p adopts" survives discretization.
const bucketSlack = 1e-9

// Pricer prices bundles under an adoption model. The zero value is invalid;
// use New.
//
// A Pricer is stateless per call: every pricing method either borrows its
// working buffers from an internal pool or, in the *In variants, uses a
// caller-owned Scratch. One Pricer instance is therefore safe for
// concurrent use by any number of goroutines (configure SetExact before
// sharing; it is the only mutator).
type Pricer struct {
	model  adoption.Model
	levels int
	exact  bool // exact sigmoid evaluation instead of bucketed
	// pool recycles Scratch buffers for the pool-backed convenience
	// methods; hot paths pass an explicit Scratch instead.
	pool sync.Pool
}

// Scratch holds the working buffers one pricing call needs: the WTP
// histogram of the Sec. 4.2 price search and the price-level buckets of
// the deterministic mixed-bundling sweep. A Scratch may be reused across any
// number of calls but must not be shared between concurrent ones; solvers
// typically pool one per worker.
type Scratch struct {
	fcounts []float64
	fsums   []float64
	mids    []float64
	// mix holds the deterministic PriceMixed sweep's per-level buckets,
	// grown on the first mixed call so pure-only scratch stays small.
	mix []mixLevel
	// off is the offer PriceMixedMerge builds where it cannot sweep.
	off MixedOffer
}

// NewScratch returns a Scratch pre-sized for T price levels. Buffers grow on
// demand, so sizing is a hint, not a limit.
func NewScratch(levels int) *Scratch {
	sc := &Scratch{}
	sc.ensure(levels)
	return sc
}

// ensure grows the level-indexed buffers to hold levels+1 entries.
func (sc *Scratch) ensure(levels int) {
	if len(sc.fcounts) >= levels+1 {
		return
	}
	sc.fcounts = make([]float64, levels+1)
	sc.fsums = make([]float64, levels+1)
	sc.mids = make([]float64, levels+1)
}

// New returns a Pricer using T price levels. T must be positive.
func New(model adoption.Model, levels int) (*Pricer, error) {
	if levels <= 0 {
		return nil, fmt.Errorf("pricing: T=%d price levels must be > 0", levels)
	}
	return &Pricer{model: model, levels: levels}, nil
}

// Default returns a Pricer with the paper's defaults: step model, T = 100.
func Default() *Pricer {
	p, _ := New(adoption.Default(), DefaultLevels)
	return p
}

// SetExact toggles exact per-consumer sigmoid evaluation (O(m·T)). It has no
// effect under the deterministic step model, which is always exact. Call
// before sharing the Pricer between goroutines.
func (p *Pricer) SetExact(exact bool) { p.exact = exact }

// getScratch borrows a Scratch from the internal pool.
func (p *Pricer) getScratch() *Scratch {
	if sc, ok := p.pool.Get().(*Scratch); ok {
		sc.ensure(p.levels)
		return sc
	}
	return NewScratch(p.levels)
}

func (p *Pricer) putScratch(sc *Scratch) { p.pool.Put(sc) }

// Model returns the adoption model in use.
func (p *Pricer) Model() adoption.Model { return p.model }

// Levels returns T, the number of price levels.
func (p *Pricer) Levels() int { return p.levels }

// Quote is the result of pricing a bundle.
type Quote struct {
	Price    float64 // chosen price (0 if no positive demand)
	Revenue  float64 // expected revenue at Price
	Adopters float64 // expected number of adopters at Price
}

// MixedOffer describes a candidate mixed-bundling offer: a set of existing
// offers stays on sale (the paper's incremental policy — their prices are
// frozen) and a new bundle covering all their items is priced on top.
//
// The existing offers are summarized per consumer by the consumer's current
// state: CurPay[j] is consumer j's total expected payment under the
// existing offers, CurSurplus[j] the deterministic surplus of those
// purchases. A consumer switches to the bundle — abandoning all existing
// purchases it subsumes — only when the bundle's surplus beats the current
// surplus (ties break toward the larger payment, the seller-favorable ε
// convention). This state-based accounting is exactly the paper's Table 6
// arithmetic: the consumer who "previously would only purchase Born in Fire
// alone for 7.99 but now buys the bundle of 3 at 13.91" contributes
// 13.91 − 7.99 = 5.92 of additional revenue. It also reproduces the
// Sec. 4.2 upgrade logic: upgrading is worthwhile only if the implicit
// price of what the bundle adds is within the consumer's WTP for it.
//
// All slices are aligned: index j refers to the same consumer. CurCost and
// CurESurplus may be nil (all zeros); they matter only under unit costs or
// α < 1.
type MixedOffer struct {
	CurPay     []float64 // expected payment per consumer under existing offers
	CurSurplus []float64 // deterministic surplus per consumer under existing offers
	WB         []float64 // new bundle's WTP per consumer (Eq. 1 over all items)
	// Lo and Hi bound the bundle price (exclusive): the paper's mixed-
	// bundling constraints require the bundle price above any component's
	// price and below the sum of the component prices.
	Lo, Hi float64
	// CurCost is the expected variable cost per consumer of serving their
	// existing purchases; CurESurplus the expected consumer surplus.
	CurCost     []float64
	CurESurplus []float64
	// BundleCost is the new bundle's variable cost per unit.
	BundleCost float64
	// Obj is the seller's objective. The zero value is α = 0 at zero
	// cost (consumer surplus only); pass RevenueObjective to maximize
	// revenue.
	Obj Objective
}

// MixedQuote is the result of pricing a mixed offer.
type MixedQuote struct {
	Price    float64 // chosen bundle price (0 if infeasible)
	Revenue  float64 // total expected offer revenue (existing offers + bundle)
	Baseline float64 // expected revenue with the bundle absent (Σ CurPay)
	Adopters float64 // expected bundle adopters at Price
	Feasible bool    // Utility > BaselineUtility within a valid price window
	// Utility and BaselineUtility carry the seller's objective with and
	// without the bundle; under RevenueObjective, with no current costs,
	// they equal Revenue and Baseline.
	Utility         float64
	BaselineUtility float64
	Surplus         float64 // expected consumer surplus with the bundle
}

// PriceMixed searches the bundle price within (Lo, Hi) maximizing the
// seller's utility under the switch rule described on MixedOffer.
func (p *Pricer) PriceMixed(off MixedOffer) MixedQuote {
	sc := p.getScratch()
	defer p.putScratch(sc)
	return p.PriceMixedIn(sc, off)
}

// PriceMixedIn is PriceMixed with caller-owned scratch, for hot paths that
// evaluate many candidate offers and want to avoid the pool round-trip.
func (p *Pricer) PriceMixedIn(sc *Scratch, off MixedOffer) MixedQuote {
	sc.ensure(p.levels)
	if len(off.CurPay) != len(off.WB) || len(off.CurSurplus) != len(off.WB) {
		panic("pricing: misaligned mixed offer vectors")
	}
	if p.model.Deterministic() && off.Hi > off.Lo {
		s := p.startSweep(sc, off.Lo, off.Hi, off.BundleCost)
		for j, wb := range off.WB {
			p.binMixed(&s, wb, off.CurPay[j], off.CurSurplus[j], at0(off.CurCost, j), at0(off.CurESurplus, j))
		}
		return s.best(off.Obj)
	}
	var basePay, baseCost, baseSur float64
	for j, pay := range off.CurPay {
		basePay += pay
		baseCost += at0(off.CurCost, j)
		baseSur += at0(off.CurESurplus, j)
	}
	q := baselineQuote(basePay, baseCost, baseSur, off.Obj)
	if off.Hi <= off.Lo {
		return q // degenerate window (e.g. a free component)
	}
	T := p.levels
	for t := 1; t <= T; t++ {
		// Strictly inside (Lo, Hi): the bounds themselves are disallowed.
		pb := off.Lo + (off.Hi-off.Lo)*float64(t)/float64(T+1)
		rev, cost, sur, adopters := p.offerOutcome(off, pb)
		util := off.Obj.ProfitWeight*(rev-cost) + (1-off.Obj.ProfitWeight)*sur
		if util > q.Utility {
			q.Price, q.Revenue, q.Adopters = pb, rev, adopters
			q.Utility, q.Surplus = util, sur
			q.Feasible = true
		}
	}
	return q
}

// baselineQuote is the quote of an offer with no bundle on sale, from the
// consumers' summed current payment, serving cost and surplus.
func baselineQuote(basePay, baseCost, baseSur float64, obj Objective) MixedQuote {
	q := MixedQuote{Baseline: basePay, Revenue: basePay, Surplus: baseSur}
	q.BaselineUtility = obj.ProfitWeight*(basePay-baseCost) + (1-obj.ProfitWeight)*baseSur
	q.Utility = q.BaselineUtility
	return q
}

// MergePart is one of the two item-disjoint offer subtrees a candidate
// mixed-bundling merge combines: its interested consumers (ascending), its
// bundle WTP per consumer, and the consumers' state under the offers the
// subtree keeps on sale (see MixedOffer). Scale lifts Vals to the merged
// bundle's Eq. 1 terms, as the scale argument of wtp.UnionVectors does.
// Every slice is aligned with IDs.
type MergePart struct {
	IDs                          []int
	Vals                         []float64
	Scale                        float64
	Pay, Surplus, Cost, ESurplus []float64
}

// PriceMixedMerge prices the bundle that merges parts a and b, with both
// parts' offers kept on sale, within the price window (lo, hi) under obj.
// Its quote is bit for bit PriceMixedIn's for the offer whose WB is the
// union of the parts' vectors (wtp.UnionVectors' arithmetic), whose
// per-consumer state is the parts' state summed per consumer, and whose
// BundleCost is obj.UnitCost. Under the step model it gets there in one
// pass over the parts' consumer lists, binning each consumer of the union
// as it is formed, so it writes no per-consumer array; otherwise it builds
// that offer in sc and prices it.
func (p *Pricer) PriceMixedMerge(sc *Scratch, a, b *MergePart, lo, hi float64, obj Objective) MixedQuote {
	bundleCost := obj.UnitCost
	sweep := p.model.Deterministic() && hi > lo
	var s mixSweep
	if sweep {
		s = p.startSweep(sc, lo, hi, bundleCost)
	}
	o := &sc.off
	*o = MixedOffer{WB: o.WB[:0], CurPay: o.CurPay[:0], CurSurplus: o.CurSurplus[:0], CurCost: o.CurCost[:0],
		CurESurplus: o.CurESurplus[:0], Lo: lo, Hi: hi, BundleCost: bundleCost, Obj: obj}
	for i, j := 0, 0; i < len(a.IDs) || j < len(b.IDs); {
		var wb, pay, surp, cost, esur float64
		switch {
		case j == len(b.IDs) || (i < len(a.IDs) && a.IDs[i] < b.IDs[j]):
			wb, pay, surp, cost, esur = a.Scale*a.Vals[i], a.Pay[i], a.Surplus[i], a.Cost[i], a.ESurplus[i]
			i++
		case i == len(a.IDs) || a.IDs[i] > b.IDs[j]:
			wb, pay, surp, cost, esur = b.Scale*b.Vals[j], b.Pay[j], b.Surplus[j], b.Cost[j], b.ESurplus[j]
			j++
		default:
			if a.Scale == b.Scale {
				wb = a.Scale * (a.Vals[i] + b.Vals[j])
			} else {
				wb = a.Scale*a.Vals[i] + b.Scale*b.Vals[j]
			}
			pay, surp, cost, esur = a.Pay[i]+b.Pay[j], a.Surplus[i]+b.Surplus[j], a.Cost[i]+b.Cost[j], a.ESurplus[i]+b.ESurplus[j]
			i++
			j++
		}
		if sweep {
			p.binMixed(&s, wb, pay, surp, cost, esur)
			continue
		}
		o.WB, o.CurPay, o.CurSurplus = append(o.WB, wb), append(o.CurPay, pay), append(o.CurSurplus, surp)
		o.CurCost, o.CurESurplus = append(o.CurCost, cost), append(o.CurESurplus, esur)
	}
	if sweep {
		return s.best(obj)
	}
	return p.PriceMixedIn(sc, *o)
}

// mixLevel is one price level of the deterministic PriceMixed sweep.
type mixLevel struct {
	pb float64 // the level's bundle price
	// The consumers whose highest definitely-cleared level this is; the
	// sweep's suffix sums over these buckets are every level's definite
	// switchers.
	cnt, pay, cost, esur, ewb float64
	// The net effect of the tie-window consumers that switch at this level.
	tieRev, tieCost, tieSur, tieAdopt float64
}

// mixSweep is one deterministic mixed-offer evaluation under way, in
// O(m + T) instead of the O(m·T) per-level rescan of offerOutcome: the
// level buckets (in the caller's Scratch), the window's geometry and the
// baseline sums of the consumers binned so far. Under the step rule a
// consumer switches to the bundle exactly when its price falls more than ε
// below their threshold τ = α·wb − current surplus. binMixed hashes each
// consumer into the bucket of the highest level whose price it clears by
// more than 2ε, or resolves it with ResolveSwitch at each level within 2ε
// of τ; best's top-down sweep keeps suffix sums over the buckets.
type mixSweep struct {
	lv                         []mixLevel
	lo, scale, alpha, unitCost float64
	basePay, baseCost, baseSur float64
}

// startSweep opens a sweep over the window (lo, hi), lo < hi, for a bundle
// whose unit cost is unitCost.
func (p *Pricer) startSweep(sc *Scratch, lo, hi, unitCost float64) mixSweep {
	T := p.levels
	if len(sc.mix) < T+1 {
		sc.mix = make([]mixLevel, T+1)
	}
	lv := sc.mix[:T+1]
	for t := range lv {
		lv[t] = mixLevel{pb: lo + (hi-lo)*float64(t)/float64(T+1)}
	}
	return mixSweep{lv: lv, lo: lo, scale: float64(T+1) / (hi - lo), alpha: p.model.Alpha(), unitCost: unitCost}
}

// binMixed adds one consumer to the sweep: its bundle WTP wb and its
// current payment, surplus, serving cost and expected surplus. The state
// joins the baseline sums in the order consumers are added.
func (p *Pricer) binMixed(s *mixSweep, wb, pay, surp, cost, esur float64) {
	const eps = adoption.DefaultEpsilon
	s.basePay += pay
	s.baseCost += cost
	s.baseSur += esur
	ewb := s.alpha * wb
	if ewb <= 0 {
		return // never switches; payment already in the baseline
	}
	// Level prices are non-decreasing in t, rounding included, so a
	// consumer definitely switches (τ > pb_t + 2ε) at every level up to its
	// bucket level k and at none above; the levels above k where τ is still
	// within 2ε of pb_t form its tie window.
	//
	// The classification threshold clamps negative current surplus at
	// zero: for surplus < 0 the binding ResolveSwitch constraint is
	// bs ≥ -ε (price at most ε above the effective WTP), not the surplus
	// comparison, so the switch boundary is ewb itself. The tie window
	// below still sees the true surplus via ResolveSwitch.
	tauSurp := surp
	if tauSurp < 0 {
		tauSurp = 0
	}
	tau := ewb - tauSurp
	lv := s.lv
	T := len(lv) - 1
	// Estimate k arithmetically, then settle it by stepping with the
	// predicate itself, so float rounding in the estimate cannot change
	// which levels a consumer clears.
	k := 0
	if x := (tau - 2*eps - s.lo) * s.scale; x >= float64(T) {
		k = T
	} else if x > 0 {
		k = int(x)
	}
	for k < T && tau > lv[k+1].pb+2*eps {
		k++
	}
	for k > 0 && !(tau > lv[k].pb+2*eps) {
		k--
	}
	if k > 0 {
		b := &lv[k]
		b.cnt++
		b.pay += pay
		b.cost += cost
		b.esur += esur
		b.ewb += ewb
	}
	for t := k + 1; t <= T && tau >= lv[t].pb-2*eps; t++ {
		b := &lv[t]
		bpay, prob, switched := p.ResolveSwitch(wb, pay, surp, b.pb)
		if switched {
			b.tieRev += bpay - pay
			b.tieCost += s.unitCost*prob - cost
			b.tieSur -= esur
			if st := ewb - b.pb; st > 0 {
				b.tieSur += st * prob
			}
			b.tieAdopt += prob
		}
	}
}

// best runs the sweep top-down over the binned levels and returns the
// quote of the best one under obj, or the baseline when no level beats it.
func (s *mixSweep) best(obj Objective) MixedQuote {
	q := baselineQuote(s.basePay, s.baseCost, s.baseSur, obj)
	// The sweep runs top-down, so keeping a level that ties the best seen
	// selects the reference loop's choice: the first maximum ascending.
	var cnt, sumPay, sumCost, sumESur, sumEwb float64
	for t := len(s.lv) - 1; t >= 1; t-- {
		b := &s.lv[t]
		cnt += b.cnt
		sumPay += b.pay
		sumCost += b.cost
		sumESur += b.esur
		sumEwb += b.ewb
		rev := b.pb*cnt + (s.basePay - sumPay) + b.tieRev
		cost := s.unitCost*cnt + (s.baseCost - sumCost) + b.tieCost
		sur := (sumEwb - b.pb*cnt) + (s.baseSur - sumESur) + b.tieSur
		util := obj.ProfitWeight*(rev-cost) + (1-obj.ProfitWeight)*sur
		if util > q.Utility || (q.Feasible && util == q.Utility) {
			q.Price, q.Revenue, q.Adopters = b.pb, rev, cnt+b.tieAdopt
			q.Utility, q.Surplus = util, sur
			q.Feasible = true
		}
	}
	return q
}

// offerOutcome evaluates the offer at bundle price pb: every consumer
// either keeps their current purchases or switches to the bundle.
func (p *Pricer) offerOutcome(off MixedOffer, pb float64) (rev, cost, surplus, bundleAdopters float64) {
	for j := range off.WB {
		pay, prob, switched := p.ResolveSwitch(off.WB[j], off.CurPay[j], off.CurSurplus[j], pb)
		rev += pay
		if switched {
			bundleAdopters += prob
			cost += off.BundleCost * prob
			if s := p.model.Alpha()*off.WB[j] - pb; s > 0 {
				surplus += s * prob
			}
		} else {
			cost += at0(off.CurCost, j)
			surplus += at0(off.CurESurplus, j)
		}
	}
	return rev, cost, surplus, bundleAdopters
}

// at0 indexes a possibly-nil slice, returning 0 when absent.
func at0(s []float64, j int) float64 {
	if s == nil {
		return 0
	}
	return s[j]
}

// ResolveSwitch decides whether a consumer with the given bundle WTP and
// current (expected payment, deterministic surplus) state switches to the
// bundle at price pb. It returns the consumer's resulting expected payment
// and, if they switched, the bundle adoption probability. Exported because
// the configuration algorithms must update per-consumer state after a merge
// with the same rule PriceMixed used to choose the price.
func (p *Pricer) ResolveSwitch(wb, curPay, curSurplus, pb float64) (pay, prob float64, switched bool) {
	const eps = adoption.DefaultEpsilon
	ewb := p.model.Alpha() * wb
	bs := ewb - pb
	if ewb <= 0 || bs < -eps {
		return curPay, 0, false
	}
	bundleProb := 1.0
	if !p.model.Deterministic() {
		bundleProb = p.model.Probability(pb, wb)
	}
	bundlePay := pb * bundleProb
	if bs > curSurplus+eps || (bs >= curSurplus-eps && bundlePay > curPay) {
		return bundlePay, bundleProb, true
	}
	return curPay, 0, false
}
