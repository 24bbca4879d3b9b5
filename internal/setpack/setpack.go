// Package setpack solves weighted set packing over the complete bundle
// universe of N items, the formulation the paper uses to obtain optimal
// pure-bundling configurations for small N (Sec. 5.2).
//
// The paper feeds all 2^N−1 candidate bundles to the Gurobi ILP solver;
// Gurobi is proprietary, so this package provides two exact from-scratch
// solvers — a subset-convolution dynamic program (O(3^N), the practical
// choice up to N ≈ 18) and a branch-and-bound search with an admissible
// per-item bound — plus the √N-approximation greedy ("Greedy WSP") that the
// paper compares against. All solvers operate on a dense weight vector
// indexed by item bitmask, which is exactly the artifact the experiment
// harness produces by pricing every subset.
//
// Weights must be non-negative (bundle revenues are). Under that invariant
// the optimal packing can be assumed to cover every item: any uncovered
// item can be added as a singleton without decreasing the objective, so the
// solvers branch only over sets that cover the lowest uncovered item.
package setpack

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// MaxItems bounds N so bitmask arithmetic stays in range and the dense
// weight vector stays addressable.
const MaxItems = 30

// Result is a packing: disjoint item masks and their total weight.
type Result struct {
	Masks  []int
	Weight float64
}

// validate checks the (n, weights) contract shared by all solvers.
func validate(n int, weights []float64) error {
	if n < 0 || n > MaxItems {
		return fmt.Errorf("setpack: n=%d outside [0,%d]", n, MaxItems)
	}
	if len(weights) != 1<<uint(n) {
		return fmt.Errorf("setpack: got %d weights, want 2^%d=%d", len(weights), n, 1<<uint(n))
	}
	for m, w := range weights {
		if w < 0 {
			return fmt.Errorf("setpack: negative weight %g for mask %b", w, m)
		}
	}
	return nil
}

// ExactDP computes the optimal packing by dynamic programming over item
// subsets: f(S) = best packing weight using only the items in S, with the
// recurrence branching on the subsets of S that contain S's lowest item.
// Complexity O(3^N) time, O(2^N) space. weights[mask] is the weight of the
// bundle with that item mask; weights[0] is ignored.
func ExactDP(n int, weights []float64) (Result, error) {
	if err := validate(n, weights); err != nil {
		return Result{}, err
	}
	size := 1 << uint(n)
	f := make([]float64, size)
	choice := make([]int, size)
	for S := 1; S < size; S++ {
		low := S & -S
		rest := S ^ low
		// Option: leave the low item unpacked.
		best := f[rest]
		bestChoice := 0
		// Option: pack the low item with some subset b ⊆ S, low ∈ b.
		for sub := rest; ; sub = (sub - 1) & rest {
			b := sub | low
			if v := weights[b] + f[S^b]; v > best {
				best, bestChoice = v, b
			}
			if sub == 0 {
				break
			}
		}
		f[S] = best
		choice[S] = bestChoice
	}
	res := Result{Weight: f[size-1]}
	for S := size - 1; S != 0; {
		b := choice[S]
		if b == 0 {
			S ^= S & -S
			continue
		}
		res.Masks = append(res.Masks, b)
		S ^= b
	}
	sort.Ints(res.Masks)
	return res, nil
}

// ExactBB computes the optimal packing by depth-first branch and bound.
// The admissible bound credits every uncovered item with the best
// weight-per-item share among bundles containing it. A greedy incumbent
// seeds the search. Worst case exponential; useful as a cross-check and for
// sparse weight vectors where pruning bites.
func ExactBB(n int, weights []float64) (Result, error) {
	if err := validate(n, weights); err != nil {
		return Result{}, err
	}
	if n == 0 {
		return Result{}, nil
	}
	size := 1 << uint(n)
	// Per-item best weight share, for the admissible bound.
	share := make([]float64, n)
	for m := 1; m < size; m++ {
		if weights[m] == 0 {
			continue
		}
		per := weights[m] / float64(bits.OnesCount(uint(m)))
		rem := m
		for rem != 0 {
			i := bits.TrailingZeros(uint(rem))
			if per > share[i] {
				share[i] = per
			}
			rem &= rem - 1
		}
	}
	// Suffix bound: ub[S] = Σ share[i] for i ∈ S would need 2^N space;
	// compute incrementally during DFS instead.
	greedy, err := GreedyRatio(n, weights)
	if err != nil {
		return Result{}, err
	}
	b := &bbState{n: n, weights: weights, share: share,
		bestWeight: greedy.Weight, bestMasks: append([]int(nil), greedy.Masks...)}
	full := size - 1
	b.dfs(full, 0, nil)
	sort.Ints(b.bestMasks)
	return Result{Masks: b.bestMasks, Weight: b.bestWeight}, nil
}

type bbState struct {
	n          int
	weights    []float64
	share      []float64
	bestWeight float64
	bestMasks  []int
}

func (b *bbState) bound(remaining int) float64 {
	var ub float64
	for rem := remaining; rem != 0; rem &= rem - 1 {
		ub += b.share[bits.TrailingZeros(uint(rem))]
	}
	return ub
}

func (b *bbState) dfs(remaining int, acc float64, chosen []int) {
	if remaining == 0 {
		if acc > b.bestWeight {
			b.bestWeight = acc
			b.bestMasks = append([]int(nil), chosen...)
		}
		return
	}
	if acc+b.bound(remaining) <= b.bestWeight {
		return
	}
	low := remaining & -remaining
	rest := remaining ^ low
	// Branch over every bundle containing the low item (weights ≥ 0 make
	// covering never worse than skipping), plus the "skip" branch for
	// completeness when the low item carries no weight anywhere.
	for sub := rest; ; sub = (sub - 1) & rest {
		mask := sub | low
		if w := b.weights[mask]; w > 0 || mask == low {
			b.dfs(remaining^mask, acc+w, append(chosen, mask))
		}
		if sub == 0 {
			break
		}
	}
}

// GreedyRatio implements the paper's "Greedy WSP" baseline: repeatedly pick
// the candidate with the highest weight density, discard overlapping
// candidates, until no candidate remains. Density is w/√|S| — the ordering
// of Gonen & Lehmann's greedy, which carries the √N approximation guarantee
// the paper cites (plain weight-per-item ordering does not).
func GreedyRatio(n int, weights []float64) (Result, error) {
	if err := validate(n, weights); err != nil {
		return Result{}, err
	}
	size := 1 << uint(n)
	order := make([]int, 0, size-1)
	for m := 1; m < size; m++ {
		if weights[m] > 0 {
			order = append(order, m)
		}
	}
	ratio := func(m int) float64 { return weights[m] / math.Sqrt(float64(bits.OnesCount(uint(m)))) }
	sort.Slice(order, func(a, b int) bool {
		ra, rb := ratio(order[a]), ratio(order[b])
		if ra != rb {
			return ra > rb
		}
		return order[a] < order[b]
	})
	var res Result
	taken := 0
	for _, m := range order {
		if taken&m == 0 {
			res.Masks = append(res.Masks, m)
			res.Weight += weights[m]
			taken |= m
		}
	}
	sort.Ints(res.Masks)
	return res, nil
}
