package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"bundling/internal/config"
	"bundling/internal/metrics"
	"bundling/internal/pricing"
	"bundling/internal/setpack"
	"bundling/internal/tabular"
	"bundling/internal/wtp"
)

// WSPRow aggregates one sample size N of the weighted-set-packing
// comparison (Tables 4 and 5): mean revenue coverage and mean running time
// per solver, averaged over the retained samples.
type WSPRow struct {
	N       int
	Samples int
	// Coverage (%) per solver.
	MatchingCov, GreedyCov, OptimalCov, GreedyWSPCov float64
	// Running time (seconds) per solver. EnumSeconds is the shared cost of
	// enumerating and pricing all 2^N−1 candidate bundles, which the paper
	// reports separately (it dwarfs the ILP solve itself).
	MatchingSec, GreedySec, OptimalSec, GreedyWSPSec, EnumSeconds float64
	// OptimalFeasible is false when N exceeds the exact solver budget
	// (mirroring the paper's "-" cell at N = 25).
	OptimalFeasible bool
}

// WSPResult reproduces Tables 4 and 5.
type WSPResult struct {
	Rows []WSPRow
}

// WSPOptions tunes the comparison.
type WSPOptions struct {
	Sizes   []int // item sample sizes N (paper: 10, 15, 20, 25)
	Samples int   // retained samples per size (paper: 10)
	// MaxExactN caps the exact solver: beyond it the Optimal column is
	// marked infeasible, as the paper's ILP was at N = 25.
	MaxExactN int
	Seed      int64
	// RequireSize3 keeps only samples whose optimal pure configuration
	// contains a bundle of ≥ 3 items (the paper's retention rule). When
	// the exact solver is infeasible the rule uses the heuristic's result.
	RequireSize3 bool
	MaxAttempts  int // sampling attempts per retained sample
}

// DefaultWSPOptions returns a laptop-friendly configuration.
func DefaultWSPOptions() WSPOptions {
	return WSPOptions{
		Sizes:        []int{8, 10, 12, 14},
		Samples:      5,
		MaxExactN:    16,
		Seed:         7,
		RequireSize3: true,
		MaxAttempts:  25,
	}
}

// PaperWSPOptions mirrors the paper's N values; expect multi-minute runs
// at N = 20 and an infeasible Optimal at N = 25.
func PaperWSPOptions() WSPOptions {
	o := DefaultWSPOptions()
	o.Sizes = []int{10, 15, 20, 25}
	o.Samples = 10
	o.MaxExactN = 20
	return o
}

// WSP runs the comparison: for each sample, every subset of the N sampled
// items is priced (the enumeration the paper times at up to 15 hours for
// N = 25), the exact set-packing solver and Greedy WSP consume the dense
// weight vector, and the paper's Pure Matching / Pure Greedy heuristics run
// directly on the sampled WTP matrix.
func WSP(env *Env, opts WSPOptions, params config.Params) (*WSPResult, error) {
	if len(opts.Sizes) == 0 {
		opts = DefaultWSPOptions()
	}
	params.Strategy = config.Pure
	if params.Theta == 0 {
		// The paper's Amazon data yields size-≥3 bundles even at θ = 0; on
		// the synthetic corpus (independent star values) the optimum at
		// θ = 0 is almost always all-singletons, which would starve the
		// retention rule. A mild complementarity keeps the comparison
		// meaningful; see EXPERIMENTS.md.
		params.Theta = 0.05
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	res := &WSPResult{}
	for _, n := range opts.Sizes {
		if n > setpack.MaxItems {
			return nil, fmt.Errorf("experiments: N=%d exceeds setpack.MaxItems=%d", n, setpack.MaxItems)
		}
		row := WSPRow{N: n, OptimalFeasible: n <= opts.MaxExactN}
		attempts := 0
		requireSize3 := opts.RequireSize3
		for row.Samples < opts.Samples && attempts < opts.MaxAttempts*opts.Samples {
			attempts++
			if requireSize3 && attempts > (opts.MaxAttempts*opts.Samples)/2 && row.Samples == 0 {
				// The corpus is not producing size-3 bundles at this N;
				// fall back to unconditional retention rather than report
				// an empty row.
				requireSize3 = false
			}
			ds := env.DS.SampleItems(n, rng)
			w, err := ds.WTP(env.Lambda)
			if err != nil {
				return nil, err
			}
			sample, ok, err := wspSampleRun(w, n, row.OptimalFeasible, requireSize3, params)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			row.Samples++
			row.MatchingCov += sample.matchingCov
			row.GreedyCov += sample.greedyCov
			row.OptimalCov += sample.optimalCov
			row.GreedyWSPCov += sample.greedyWSPCov
			row.MatchingSec += sample.matchingSec
			row.GreedySec += sample.greedySec
			row.OptimalSec += sample.optimalSec
			row.GreedyWSPSec += sample.greedyWSPSec
			row.EnumSeconds += sample.enumSec
		}
		if row.Samples > 0 {
			f := float64(row.Samples)
			row.MatchingCov /= f
			row.GreedyCov /= f
			row.OptimalCov /= f
			row.GreedyWSPCov /= f
			row.MatchingSec /= f
			row.GreedySec /= f
			row.OptimalSec /= f
			row.GreedyWSPSec /= f
			row.EnumSeconds /= f
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

type wspSampleResult struct {
	matchingCov, greedyCov, optimalCov, greedyWSPCov float64
	matchingSec, greedySec, optimalSec, greedyWSPSec float64
	enumSec                                          float64
}

// wspSampleRun evaluates one retained sample.
func wspSampleRun(w *wtp.Matrix, n int, exact bool, requireSize3 bool, params config.Params) (wspSampleResult, bool, error) {
	var out wspSampleResult
	total := w.Total()
	if total <= 0 {
		return out, false, nil
	}
	pr, err := pricing.New(params.Model, pricing.DefaultLevels)
	if err != nil {
		return out, false, err
	}
	// Enumerate and price every candidate bundle (O(M·2^N), the step the
	// paper reports as the dominant cost of set-packing approaches).
	start := time.Now()
	weights := make([]float64, 1<<uint(n))
	items := make([]int, 0, n)
	var ids []int
	var vals []float64
	for mask := 1; mask < len(weights); mask++ {
		items = items[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				items = append(items, i)
			}
		}
		theta := params.Theta
		if len(items) == 1 {
			theta = 0
		}
		ids, vals = w.BundleVector(items, theta, ids, vals)
		weights[mask] = pr.PriceUtility(vals, pricing.RevenueObjective()).Revenue
	}
	out.enumSec = time.Since(start).Seconds()

	start = time.Now()
	var optimal setpack.Result
	if exact {
		optimal, err = setpack.ExactDP(n, weights)
		if err != nil {
			return out, false, err
		}
		out.optimalSec = time.Since(start).Seconds()
		out.optimalCov = metrics.Coverage(optimal.Weight, total)
	}
	start = time.Now()
	greedyWSP, err := setpack.GreedyRatio(n, weights)
	if err != nil {
		return out, false, err
	}
	out.greedyWSPSec = time.Since(start).Seconds()
	out.greedyWSPCov = metrics.Coverage(greedyWSP.Weight, total)

	start = time.Now()
	pm, err := config.MatchingBased(w, params)
	if err != nil {
		return out, false, err
	}
	out.matchingSec = time.Since(start).Seconds()
	out.matchingCov = metrics.Coverage(pm.Revenue, total)

	start = time.Now()
	pg, err := config.GreedyMerge(w, params)
	if err != nil {
		return out, false, err
	}
	out.greedySec = time.Since(start).Seconds()
	out.greedyCov = metrics.Coverage(pg.Revenue, total)

	if requireSize3 {
		// The paper retains only samples whose configuration contains a
		// bundle of size ≥ 3.
		has3 := false
		if exact {
			for _, m := range optimal.Masks {
				if popcount(m) >= 3 {
					has3 = true
					break
				}
			}
		} else {
			for _, b := range pm.Bundles {
				if len(b.Items) >= 3 {
					has3 = true
					break
				}
			}
		}
		if !has3 {
			return out, false, nil
		}
	}
	return out, true, nil
}

func popcount(m int) int {
	c := 0
	for m != 0 {
		m &= m - 1
		c++
	}
	return c
}

// Render prints the paper's Table 4 (revenue) and Table 5 (time) layouts.
func (r *WSPResult) Render() string {
	t4 := tabular.New("Table 4: Comparison to Weighted Set Packing — Revenue Coverage (%)",
		"N", "samples", "Pure Matching", "Pure Greedy", "Optimal", "Greedy WSP")
	for _, row := range r.Rows {
		opt := "-"
		if row.OptimalFeasible {
			opt = fmt.Sprintf("%.1f%%", row.OptimalCov)
		}
		t4.AddRow(fmt.Sprintf("%d", row.N), fmt.Sprintf("%d", row.Samples),
			fmt.Sprintf("%.1f%%", row.MatchingCov), fmt.Sprintf("%.1f%%", row.GreedyCov),
			opt, fmt.Sprintf("%.1f%%", row.GreedyWSPCov))
	}
	t5 := tabular.New("Table 5: Comparison to Weighted Set Packing — Running Time (seconds)",
		"N", "Pure Matching", "Pure Greedy", "Optimal", "Greedy WSP", "enumeration")
	for _, row := range r.Rows {
		opt := "-"
		if row.OptimalFeasible {
			opt = fmt.Sprintf("%.3f", row.OptimalSec)
		}
		t5.AddRow(fmt.Sprintf("%d", row.N),
			fmt.Sprintf("%.3f", row.MatchingSec), fmt.Sprintf("%.3f", row.GreedySec),
			opt, fmt.Sprintf("%.3f", row.GreedyWSPSec), fmt.Sprintf("%.3f", row.EnumSeconds))
	}
	return t4.String() + "\n" + t5.String()
}
