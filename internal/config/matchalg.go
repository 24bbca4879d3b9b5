package config

import (
	"cmp"
	"slices"
	"time"

	"bundling/internal/matching"
	"bundling/internal/obs"
	"bundling/internal/wtp"
)

// MatchingBased runs the paper's Algorithm 1: iteratively solve a
// maximum-weight matching over the current bundles, merging every matched
// pair, until no matching yields a revenue gain or the size cap k blocks
// all merges. Works for both pure and mixed bundling (params.Strategy).
//
// The matching runs on *gain* weights — the revenue improvement of a merge
// over keeping its two operands — so that a self-loop ("keep the bundle")
// is the implicit zero alternative and only positive-gain edges exist.
// Per the paper's pruning: iteration 1 considers only item pairs sharing an
// interested consumer (valid for θ ≤ 0, see engine.mergeable), and later
// iterations only pairs touching a newly formed bundle.
func MatchingBased(w *wtp.Matrix, params Params) (*Configuration, error) {
	s, err := NewSolver(w, params)
	if err != nil {
		return nil, err
	}
	return s.Solve(MatchingAlgorithm())
}

// matching is Algorithm 1 on a run engine.
func (e *engine) matching() (*Configuration, error) {
	start := time.Now()
	nodes := e.singletons()
	var trace []IterationStat
	total := 0.0
	for _, n := range nodes {
		total += n.revenue
	}
	trace = append(trace, IterationStat{Iteration: 0, Revenue: total, Elapsed: time.Since(start), Bundles: len(nodes)})

	iteration := 0
	for {
		if err := e.canceled(); err != nil {
			return nil, err
		}
		iteration++
		var cands []pairResult
		if iteration == 1 {
			var err error
			if cands, err = e.firstRound(nodes, false); err != nil {
				return nil, err
			}
		} else {
			var jobs []pairJob
			for i := 0; i < len(nodes); i++ {
				for j := i + 1; j < len(nodes); j++ {
					a, b := nodes[i], nodes[j]
					if (a.fresh || b.fresh) && e.mergeable(a, b) {
						jobs = append(jobs, pairJob{u: i, v: j})
					}
				}
			}
			cands = e.evalPairs(nodes, jobs, false, e.laterMemo(false))
			if err := e.canceled(); err != nil {
				// A done context truncates evalPairs; an empty batch here
				// means "aborted", not "converged" — it must not end the
				// run silently.
				return nil, err
			}
		}
		if len(cands) == 0 {
			break
		}
		edges := make([]matching.Edge, len(cands))
		for ci, c := range cands {
			edges[ci] = matching.Edge{U: c.u, V: c.v, Weight: c.gain}
		}
		mate, err := matching.MaxWeight(len(nodes), edges)
		if err != nil {
			return nil, err
		}
		// Collapse matched pairs, building each merged node from its
		// candidate. The candidates are in (u, v) order — firstRound's
		// contract, and the later-round jobs run i < j — so a matched
		// pair's candidate is found by binary search.
		mergedAny := false
		next := nodes[:0:0]
		taken := make([]bool, len(nodes))
		for i, n := range nodes {
			n.fresh = false
			if taken[i] {
				continue
			}
			j := mate[i]
			if j < 0 {
				next = append(next, n)
				continue
			}
			lo, hi := i, j
			if lo > hi {
				lo, hi = hi, lo
			}
			k, _ := slices.BinarySearchFunc(cands, pairJob{u: lo, v: hi}, func(c pairResult, j pairJob) int {
				return cmp.Or(cmp.Compare(c.u, j.u), cmp.Compare(c.v, j.v))
			})
			m := e.merge(nodes[lo], nodes[hi], cands[k])
			taken[i], taken[j] = true, true
			next = append(next, m)
			total += m.revenue - nodes[lo].revenue - nodes[hi].revenue
			mergedAny = true
		}
		nodes = next
		trace = append(trace, IterationStat{Iteration: iteration, Revenue: total, Elapsed: time.Since(start), Bundles: len(nodes)})
		if !mergedAny {
			break
		}
	}
	obs.SpanFrom(e.reqCtx).Tag("built", e.built)
	return e.finish(nodes, iteration, trace), nil
}

// Optimal2Sized solves the 2-sized bundle configuration exactly (Sec. 5.1):
// with k = 2 a single maximum-weight matching over the item graph is the
// optimal partition into size-1 and size-2 bundles. For mixed bundling the
// same reduction holds with edge weights equal to the best mixed-offer
// revenue (optimal under the paper's incremental pricing policy).
// One-shot form; sessions use Solver.Solve(Optimal2Algorithm()).
func Optimal2Sized(w *wtp.Matrix, params Params) (*Configuration, error) {
	s, err := NewSolver(w, params)
	if err != nil {
		return nil, err
	}
	return s.Solve(Optimal2Algorithm())
}
