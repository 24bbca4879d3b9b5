// Package config implements the paper's bundle-configuration algorithms
// (Sec. 5): the optimal 2-sized solution via maximum-weight matching, the
// iterative matching-based heuristic (Algorithm 1) and the greedy heuristic
// (Algorithm 2) for arbitrary bundle sizes, each in a pure-bundling and a
// mixed-bundling variant, plus the Components and frequent-itemset
// baselines used in the evaluation (Sec. 6.1.3).
package config

import (
	"fmt"
	"math"
	"time"

	"bundling/internal/adoption"
	"bundling/internal/pricing"
	"bundling/internal/wtp"
)

// Strategy selects between the two bundling problem variants (Sec. 3.2).
type Strategy int

const (
	// Pure bundling: the configuration is a strict partition of the items;
	// a bundle and its components are never both on sale.
	Pure Strategy = iota
	// Mixed bundling: a bundle's components remain on sale alongside it.
	Mixed
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Pure:
		return "pure"
	case Mixed:
		return "mixed"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Unlimited disables the bundle-size cap (the paper's default k = ∞).
const Unlimited = 0

// minGain is the smallest revenue gain considered an improvement; it
// absorbs float noise in the pricing grids.
const minGain = 1e-9

// Params collects the knobs of Table 3 plus the strategy and the seller's
// objective (Sec. 1).
type Params struct {
	Strategy    Strategy
	Theta       float64        // bundling coefficient θ (Eq. 1)
	K           int            // max bundle size k; Unlimited (0) = no cap
	Model       adoption.Model // stochastic adoption model (γ, α, ε)
	PriceLevels int            // T ≤ pricing.MaxLevels; 0 selects pricing.DefaultLevels
	// ProfitWeight is the α of the seller's utility α·profit+(1-α)·surplus
	// (Sec. 1). The paper's evaluation fixes it at 1 (DefaultParams).
	ProfitWeight float64
	// UnitCosts holds per-item variable costs; nil means zero cost
	// (information goods), the paper's setting, where profit maximization
	// equals revenue maximization. A bundle's unit cost is the sum of its
	// items' costs.
	UnitCosts []float64
	// Parallelism caps the workers used for candidate-merge pricing
	// (0 = GOMAXPROCS). The algorithms are deterministic regardless.
	Parallelism int
	// StripeSize is the number of consumers per storage stripe of the
	// solver's sharded WTP index (0 = wtp.DefaultStripeSize). Smaller
	// stripes shrink the cache working set of per-stripe scans and raise
	// the number of independently farmable work units; larger stripes
	// lower per-stripe overhead. Results are identical for any value, but
	// each stripe holds items + 1 offsets, so NewSolver errors when
	// stripes × (items + 1) exceeds 2^20.
	StripeSize int
	// DisablePruning turns off the paper's common-interest pruning of
	// candidate pairs (Sec. 5.3.1). Ablation knob: the pruning is lossless
	// for θ ≤ 0, so disabling it should change running time but not
	// revenue; the Ablations experiment verifies exactly that.
	DisablePruning bool
	// ExactSigmoid switches the stochastic pricing evaluation from the
	// O(m+T²) bucketed approximation to the exact O(m·T) scan. Ablation
	// knob for the discretization design choice of Sec. 4.2.
	ExactSigmoid bool
	// referenceEval disables the incremental cached-vector union so merge
	// candidates rebuild their vectors from the raw postings. Unexported:
	// only the equivalence tests set it, to diff the two paths.
	referenceEval bool
	// GreedyRunToEnd selects the alternative stopping condition of
	// Sec. 5.3.2: instead of stopping at the first iteration with no
	// positive gain, the greedy algorithm keeps merging the least-bad pair
	// until a single bundle remains and returns the best configuration
	// seen along the way. The paper reports this "would increase running
	// time significantly without producing meaningful revenue gain"; the
	// ablation suite verifies exactly that. Pure bundling only (under the
	// mixed incremental policy non-gaining merges are simply infeasible).
	GreedyRunToEnd bool
}

// DefaultParams returns the paper's default settings (Table 3): θ = 0,
// k = ∞, step-function adoption, T = 100 price levels, pure bundling,
// profit-only objective with zero variable costs.
func DefaultParams() Params {
	return Params{
		Strategy:     Pure,
		Theta:        0,
		K:            Unlimited,
		Model:        adoption.Default(),
		PriceLevels:  pricing.DefaultLevels,
		ProfitWeight: 1,
	}
}

// Validate checks parameter ranges.
func (p Params) Validate() error {
	if p.Strategy != Pure && p.Strategy != Mixed {
		return fmt.Errorf("config: unknown strategy %d", int(p.Strategy))
	}
	if p.Theta <= -1 {
		return fmt.Errorf("config: θ=%g must be > -1 (bundle WTP would vanish)", p.Theta)
	}
	if p.K < 0 {
		return fmt.Errorf("config: k=%d must be ≥ 0", p.K)
	}
	if p.PriceLevels < 0 || p.PriceLevels > pricing.MaxLevels {
		return fmt.Errorf("config: price levels %d outside [0, %d]", p.PriceLevels, pricing.MaxLevels)
	}
	if (p.Model == adoption.Model{}) {
		return fmt.Errorf("config: zero adoption model; use adoption.New or adoption.Default")
	}
	if p.ProfitWeight < 0 || p.ProfitWeight > 1 {
		return fmt.Errorf("config: profit weight α=%g outside [0,1]", p.ProfitWeight)
	}
	for i, c := range p.UnitCosts {
		if c < 0 {
			return fmt.Errorf("config: negative unit cost %g for item %d", c, i)
		}
	}
	if p.Parallelism < 0 {
		return fmt.Errorf("config: negative parallelism %d", p.Parallelism)
	}
	if p.StripeSize < 0 {
		return fmt.Errorf("config: negative stripe size %d", p.StripeSize)
	}
	if p.GreedyRunToEnd && p.Strategy != Pure {
		return fmt.Errorf("config: GreedyRunToEnd applies to pure bundling only")
	}
	if p.GreedyRunToEnd && (p.ProfitWeight != 1 || p.UnitCosts != nil) {
		return fmt.Errorf("config: GreedyRunToEnd supports the default objective only")
	}
	return nil
}

// maxSize returns the effective bundle-size cap.
func (p Params) maxSize() int {
	if p.K == Unlimited {
		return math.MaxInt
	}
	return p.K
}

func (p Params) pricer() (*pricing.Pricer, error) {
	levels := p.PriceLevels
	if levels == 0 {
		levels = pricing.DefaultLevels
	}
	pr, err := pricing.New(p.Model, levels)
	if err != nil {
		return nil, err
	}
	pr.SetExact(p.ExactSigmoid)
	return pr, nil
}

// Bundle is one priced offer element of a configuration.
type Bundle struct {
	Items   []int   // ascending item ids
	Price   float64 // offer price
	Revenue float64 // expected standalone revenue at Price
}

// Size returns the number of items in the bundle.
func (b Bundle) Size() int { return len(b.Items) }

// IterationStat records one iteration of an anytime algorithm, the raw
// material of the paper's revenue-vs-time trade-off study (Fig. 6).
type IterationStat struct {
	Iteration int
	Revenue   float64       // cumulative expected revenue after the iteration
	Elapsed   time.Duration // cumulative wall time
	Bundles   int           // top-level bundles after the iteration
}

// Configuration is the output of a bundling algorithm.
type Configuration struct {
	Strategy Strategy
	// Bundles are the top-level offers. Under Pure they partition the item
	// set; under Mixed they are the subsuming bundles (X_I).
	Bundles []Bundle
	// Components are the retained sub-bundles under Mixed (X'_I): offers
	// that stay on sale alongside the bundle that subsumed them. Empty for
	// Pure.
	Components []Bundle
	// Revenue is the total expected revenue of the configuration.
	Revenue float64
	// Profit, Surplus and Utility decompose the seller's objective
	// (Sec. 1): Utility = α·Profit + (1-α)·Surplus. With the paper's
	// default objective (α = 1, zero costs) all three collapse onto
	// Revenue except Surplus, which reports the consumers' side.
	Profit  float64
	Surplus float64
	Utility float64
	// Iterations and Trace describe the algorithm's run.
	Iterations int
	Trace      []IterationStat
}

// Offers returns all priced offers: top-level bundles plus, under mixed
// bundling, the retained components.
func (c *Configuration) Offers() []Bundle {
	out := make([]Bundle, 0, len(c.Bundles)+len(c.Components))
	out = append(out, c.Bundles...)
	out = append(out, c.Components...)
	return out
}

// CoversAll reports whether the union of top-level bundles is exactly the
// item universe (condition 1 of Problems 1 and 2).
func (c *Configuration) CoversAll(items int) bool {
	seen := make([]bool, items)
	for _, b := range c.Bundles {
		for _, i := range b.Items {
			if i < 0 || i >= items || seen[i] {
				return false
			}
			seen[i] = true
		}
	}
	for _, ok := range seen {
		if !ok {
			return false
		}
	}
	return true
}

// Components prices every item individually at its utility-maximizing
// price — the non-bundling baseline (Sec. 6.1.3). Under the default
// objective (α = 1, zero costs) that is the revenue-maximizing price.
// One-shot form; sessions use Solver.Solve(ComponentsAlgorithm()).
func Components(w *wtp.Matrix, params Params) (*Configuration, error) {
	s, err := NewSolver(w, params)
	if err != nil {
		return nil, err
	}
	return s.Solve(ComponentsAlgorithm())
}

// components assembles the baseline from the session's priced singletons —
// pure index reads, no pricing work.
func (e *engine) components() (*Configuration, error) {
	start := time.Now()
	cfg := &Configuration{Strategy: e.params.Strategy, Iterations: 1}
	for _, n := range e.s.protos {
		cfg.Bundles = append(cfg.Bundles, Bundle{Items: append([]int(nil), n.items...), Price: n.uq.Price, Revenue: n.uq.Revenue})
		cfg.Revenue += n.uq.Revenue
		cfg.Profit += n.uq.Profit
		cfg.Surplus += n.uq.Surplus
		cfg.Utility += n.uq.Utility
	}
	cfg.Trace = []IterationStat{{Iteration: 1, Revenue: cfg.Revenue, Elapsed: time.Since(start), Bundles: len(cfg.Bundles)}}
	return cfg, nil
}

// ComponentsAtPrices evaluates the Components strategy at externally given
// prices (e.g. the marketplace list prices, the weaker baseline of
// Table 2) instead of optimal prices.
func ComponentsAtPrices(w *wtp.Matrix, prices []float64, params Params) (*Configuration, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(prices) != w.Items() {
		return nil, fmt.Errorf("config: %d prices for %d items", len(prices), w.Items())
	}
	cfg := &Configuration{Strategy: params.Strategy, Iterations: 1}
	for i := 0; i < w.Items(); i++ {
		price := prices[i]
		var expected float64
		for _, e := range w.Postings(i) {
			expected += params.Model.Probability(price, e.Value)
		}
		rev := price * expected
		cfg.Bundles = append(cfg.Bundles, Bundle{Items: []int{i}, Price: price, Revenue: rev})
		cfg.Revenue += rev
	}
	return cfg, nil
}
