package config

import (
	"time"

	"bundling/internal/obs"
	"bundling/internal/wtp"
)

// GreedyMerge runs the paper's Algorithm 2: repeatedly merge the pair of
// current bundles with the highest absolute revenue gain, until no merge
// gains revenue. Works for both pure and mixed bundling (params.Strategy).
// One-shot form; sessions use Solver.Solve(GreedyAlgorithm()).
//
// A lazy max-heap holds candidate merges; entries referring to bundles that
// have since been merged away are discarded on pop. After each merge only
// pairs involving the new bundle are (re-)evaluated, giving the O(M·N²)
// revenue-computation bound of Sec. 5.3.2.
func GreedyMerge(w *wtp.Matrix, params Params) (*Configuration, error) {
	s, err := NewSolver(w, params)
	if err != nil {
		return nil, err
	}
	return s.Solve(GreedyAlgorithm())
}

// greedy is Algorithm 2 on a run engine.
func (e *engine) greedy() (*Configuration, error) {
	start := time.Now()
	nodes := e.singletons()
	total := 0.0
	for _, n := range nodes {
		total += n.revenue
	}
	trace := []IterationStat{{Iteration: 0, Revenue: total, Elapsed: time.Since(start), Bundles: len(nodes)}}

	// Heap entries whose bundles have since died are skipped on pop.
	var h mergeHeap
	alive := len(nodes)
	// The run-to-end variant's alternative stopping condition (Sec. 5.3.2)
	// needs every mergeable pair, not only the gaining ones: the algorithm
	// keeps taking the least-bad merge all the way to a single bundle and
	// returns the best configuration seen.
	runToEnd := e.params.GreedyRunToEnd
	first, err := e.firstRound(nodes, runToEnd)
	if err != nil {
		return nil, err
	}
	for _, r := range first {
		h.push(r)
	}
	// Best-seen snapshot for the run-to-end variant.
	bestTotal := total
	bestSurplus := 0.0
	var bestBundles []Bundle
	snapshot := func() {
		bestBundles = bestBundles[:0]
		bestSurplus = 0
		for _, n := range nodes {
			if !n.dead {
				bestBundles = append(bestBundles, n.asBundle())
				bestSurplus += n.surplus
			}
		}
	}
	if runToEnd {
		snapshot()
	}
	iteration := 0
	var jobs []pairJob
	for len(h) > 0 {
		if err := e.canceled(); err != nil {
			return nil, err
		}
		top := h.pop()
		if nodes[top.u].dead || nodes[top.v].dead {
			continue
		}
		if !runToEnd && top.gain <= minGain {
			break
		}
		iteration++
		a, bn := nodes[top.u], nodes[top.v]
		a.dead = true
		bn.dead = true
		alive--
		merged := e.merge(a, bn, top)
		newIdx := len(nodes)
		nodes = append(nodes, merged)
		// The gain is measured in seller utility; the trace reports the
		// revenue delta (identical under the default objective).
		total += merged.revenue - a.revenue - bn.revenue
		trace = append(trace, IterationStat{Iteration: iteration, Revenue: total, Elapsed: time.Since(start), Bundles: alive})
		if runToEnd && total > bestTotal {
			bestTotal = total
			snapshot()
		}
		// Re-price merges of the new bundle against all live bundles, in
		// parallel: this per-iteration re-evaluation dominates the greedy
		// algorithm's running time (the initial seeding prices each pair
		// once; every merge re-prices up to N pairs).
		jobs = jobs[:0]
		for i := 0; i < newIdx; i++ {
			if nodes[i].dead || !e.mergeable(nodes[i], merged) {
				continue
			}
			jobs = append(jobs, pairJob{u: i, v: newIdx})
		}
		for _, r := range e.evalPairs(nodes, jobs, runToEnd, e.laterMemo(runToEnd)) {
			h.push(r)
		}
	}
	if err := e.canceled(); err != nil {
		// The heap can drain because a truncated evalPairs round pushed
		// nothing; surface the abort rather than a half-merged result.
		return nil, err
	}
	obs.SpanFrom(e.reqCtx).Tag("built", e.built)
	cfg := e.finish(nodes, iteration, trace)
	if runToEnd && bestTotal > cfg.Revenue+minGain {
		// Return the best configuration seen along the full merge path.
		best := &Configuration{
			Strategy:   e.params.Strategy,
			Bundles:    append([]Bundle(nil), bestBundles...),
			Revenue:    bestTotal,
			Surplus:    bestSurplus,
			Profit:     bestTotal, // pure + default objective: profit = revenue
			Utility:    bestTotal,
			Iterations: iteration,
			Trace:      trace,
		}
		return best, nil
	}
	return cfg, nil
}

// mergeHeap is a max-heap of priced candidate merges by gain. push and pop
// take container/heap's exact up and down steps with the same comparison,
// so the pop order, ties included, is container/heap's, without boxing
// every candidate in an interface.
type mergeHeap []pairResult

// push adds r and sifts it up.
func (h *mergeHeap) push(r pairResult) {
	*h = append(*h, r)
	s := *h
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].gain > s[i].gain) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the candidate of the highest gain.
func (h *mergeHeap) pop() pairResult {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].gain > s[j].gain {
			j = j2 // right child
		}
		if !(s[j].gain > s[i].gain) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}
