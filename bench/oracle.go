package main

import (
	"fmt"
	"math"

	"bundling"
)

// pinned are the committed BENCH_greedy.json revenues of the bench-scale
// corpus: the warm solves of solve-* must reproduce them before any patch.
var pinned = map[string]map[string]float64{
	"pure":  {"matching": 87454.75749999996, "greedy": 87454.75749999996},
	"mixed": {"matching": 90871.08218120891, "greedy": 90872.92101699702},
}

// sameRevenue is the oracle's match rule: equal within 1e-9 relative.
func sameRevenue(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
}

// checkPin compares a warm solve's revenue with its pinned value, if any.
func checkPin(co corpus, alg string, revenue float64) error {
	want, ok := pinned[co.id][alg]
	if !ok || sameRevenue(revenue, want) {
		return nil
	}
	return fmt.Errorf("warm %s solve on %s: revenue %.10g, pinned %.10g", alg, co.id, revenue, want)
}

// checkEvaluates re-prices every sampled evaluate on a fresh in-process
// session per corpus and returns the mismatches. Sessions are built one
// corpus at a time to bound memory at paper scale.
func checkEvaluates(corpora []corpus, evals []evalCheck) ([]string, error) {
	var bad []string
	for ci, co := range corpora {
		var s *bundling.Solver
		for _, ch := range evals {
			if ch.corpus != ci {
				continue
			}
			if s == nil {
				var err error
				if s, err = bundling.NewSolver(co.w, co.opts); err != nil {
					return bad, fmt.Errorf("oracle session %s: %w", co.id, err)
				}
			}
			cfg, err := s.Evaluate(ch.offers)
			if err != nil {
				return bad, fmt.Errorf("oracle evaluate %s %v: %w", co.id, ch.offers, err)
			}
			if !sameRevenue(ch.revenue, cfg.Revenue) {
				bad = append(bad, fmt.Sprintf("evaluate %s %v: served revenue %.10g, oracle %.10g", co.id, ch.offers, ch.revenue, cfg.Revenue))
			}
		}
	}
	return bad, nil
}

// checkSolves replays the acknowledged patch chain with Solver.ApplyDelta
// and re-runs every sampled solve at its generation.
func checkSolves(co corpus, patches [][]bundling.DeltaCell, solves []solveCheck) ([]string, error) {
	var bad []string
	s, err := bundling.NewSolver(co.w, co.opts)
	if err != nil {
		return nil, fmt.Errorf("oracle session %s: %w", co.id, err)
	}
	next := 0
	for step, cells := range patches {
		if next == len(solves) {
			break
		}
		if s, err = s.ApplyDelta(cells); err != nil {
			return bad, fmt.Errorf("oracle patch %d: %w", step, err)
		}
		for ; next < len(solves) && solves[next].step == step; next++ {
			ch := solves[next]
			alg, err := bundling.AlgorithmByName(ch.alg)
			if err != nil {
				return bad, err
			}
			cfg, err := s.Solve(alg)
			if err != nil {
				return bad, fmt.Errorf("oracle solve %s at step %d: %w", ch.alg, step, err)
			}
			if !sameRevenue(ch.revenue, cfg.Revenue) {
				bad = append(bad, fmt.Sprintf("solve %s %s after patch %d: served revenue %.10g, oracle %.10g", co.id, ch.alg, step, ch.revenue, cfg.Revenue))
			}
		}
	}
	if next < len(solves) {
		bad = append(bad, fmt.Sprintf("solve %s: %d sampled solves have no acknowledged patch", co.id, len(solves)-next))
	}
	return bad, nil
}

// checkWarmSolves checks the unpatched corpus's warm solves that have no
// pinned value against an in-process session.
func checkWarmSolves(co corpus, warm map[string]float64) ([]string, error) {
	var bad []string
	var s *bundling.Solver
	for _, name := range solveAlgorithms {
		got, ok := warm[name]
		if !ok {
			continue
		}
		if _, isPinned := pinned[co.id][name]; isPinned {
			continue
		}
		if s == nil {
			var err error
			if s, err = bundling.NewSolver(co.w, co.opts); err != nil {
				return bad, fmt.Errorf("oracle session %s: %w", co.id, err)
			}
		}
		alg, err := bundling.AlgorithmByName(name)
		if err != nil {
			return bad, err
		}
		cfg, err := s.Solve(alg)
		if err != nil {
			return bad, fmt.Errorf("oracle solve %s: %w", name, err)
		}
		if !sameRevenue(got, cfg.Revenue) {
			bad = append(bad, fmt.Sprintf("warm %s solve on %s: served revenue %.10g, oracle %.10g", name, co.id, got, cfg.Revenue))
		}
	}
	return bad, nil
}
