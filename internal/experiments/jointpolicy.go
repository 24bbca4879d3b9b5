package experiments

import (
	"fmt"
	"math/rand"

	"bundling/internal/config"
	"bundling/internal/pricing"
	"bundling/internal/tabular"
)

// JointPolicyResult quantifies the paper's deferred future work: how much
// revenue the incremental mixed-pricing policy (components priced first,
// bundle conditioned on them) leaves on the table versus jointly optimizing
// all three prices. Evaluated on single two-item offers sampled from the
// corpus, because the O(G³·m) joint search is far too slow for the
// algorithms' inner loop — which is exactly why the paper adopts the
// incremental policy.
type JointPolicyResult struct {
	Pairs              int
	MeanIncremental    float64 // mean offer revenue under the incremental policy
	MeanJoint          float64 // mean offer revenue under joint pricing
	MeanUpliftPct      float64 // mean per-pair uplift (%)
	PairsWithUplift    int     // pairs where joint strictly improved
	MaxUpliftPct       float64
	GridLevelsPerPrice int
}

// JointPolicy samples item pairs sharing at least one interested consumer
// and prices each pair's mixed offer both ways.
func JointPolicy(env *Env, pairs int, params config.Params, seed int64) (*JointPolicyResult, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if pairs < 1 {
		pairs = 1
	}
	pr, err := pricing.New(params.Model, pricing.DefaultLevels)
	if err != nil {
		return nil, err
	}
	const grid = 30
	rng := rand.New(rand.NewSource(seed))
	w := env.W
	res := &JointPolicyResult{GridLevelsPerPrice: grid}
	attempts := 0
	for res.Pairs < pairs && attempts < pairs*200 {
		attempts++
		i, j := rng.Intn(w.Items()), rng.Intn(w.Items())
		if i == j || !w.CommonInterest(i, j) {
			continue
		}
		// Aligned vectors over the union audience.
		ids, wb := w.BundleVector([]int{i, j}, params.Theta, nil, nil)
		ids1, v1 := w.BundleVector([]int{i}, 0, nil, nil)
		ids2, v2 := w.BundleVector([]int{j}, 0, nil, nil)
		w1 := scatter(ids, ids1, v1)
		w2 := scatter(ids, ids2, v2)
		off := pricing.JointOffer{W1: w1, W2: w2, WB: wb}

		// Incremental policy: standalone component prices, bundle price
		// conditioned within the Guiltinan window; revenue of the full
		// offer evaluated under the same joint choice model so the two
		// policies are compared apples-to-apples.
		q1 := pr.PriceUtility(v1, pricing.RevenueObjective())
		q2 := pr.PriceUtility(v2, pricing.RevenueObjective())
		if q1.Price <= 0 || q2.Price <= 0 {
			continue
		}
		lo := q1.Price
		if q2.Price > lo {
			lo = q2.Price
		}
		hi := q1.Price + q2.Price
		inc := pricing.JointQuote{P1: q1.Price, P2: q2.Price}
		// Components-only outcome (no bundle on offer): price the bundle
		// out of reach by evaluating at the window edge, which no consumer
		// strictly prefers; equivalently the offer without a viable bundle.
		for k := 1; k <= pricing.DefaultLevels; k++ {
			pb := lo + (hi-lo)*float64(k)/float64(pricing.DefaultLevels+1)
			if rev := pr.EvaluateJoint(off, q1.Price, q2.Price, pb); rev > inc.Revenue {
				inc.PB = pb
				inc.Revenue = rev
			}
		}
		joint := pr.PriceMixedJoint(off, grid, inc)
		if inc.Revenue <= 0 {
			continue
		}
		res.Pairs++
		res.MeanIncremental += inc.Revenue
		res.MeanJoint += joint.Revenue
		uplift := (joint.Revenue - inc.Revenue) / inc.Revenue * 100
		res.MeanUpliftPct += uplift
		if uplift > 1e-9 {
			res.PairsWithUplift++
		}
		if uplift > res.MaxUpliftPct {
			res.MaxUpliftPct = uplift
		}
	}
	if res.Pairs == 0 {
		return nil, fmt.Errorf("experiments: no viable pairs for the joint-policy study")
	}
	f := float64(res.Pairs)
	res.MeanIncremental /= f
	res.MeanJoint /= f
	res.MeanUpliftPct /= f
	return res, nil
}

// Render prints the study summary.
func (r *JointPolicyResult) Render() string {
	t := tabular.New("Extension: incremental vs joint mixed pricing (paper's future work)",
		"pairs", "mean incremental", "mean joint", "mean uplift", "pairs improved", "max uplift")
	t.AddRow(
		fmt.Sprintf("%d", r.Pairs),
		fmt.Sprintf("%.2f", r.MeanIncremental),
		fmt.Sprintf("%.2f", r.MeanJoint),
		fmt.Sprintf("%+.2f%%", r.MeanUpliftPct),
		fmt.Sprintf("%d/%d", r.PairsWithUplift, r.Pairs),
		fmt.Sprintf("%+.2f%%", r.MaxUpliftPct),
	)
	return t.String()
}
