package main

// The perf experiment measures the configuration algorithms' hot paths with
// testing.Benchmark and emits machine-readable results, so successive PRs
// accumulate a performance trajectory to regress against (see the `bench`
// Makefile target, which writes BENCH_greedy.json at the repo root).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"bundling/internal/config"
	"bundling/internal/experiments"
	"bundling/internal/wtp"
)

// PerfResult is one benchmarked algorithm run.
type PerfResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Revenue     float64 `json:"revenue"` // sanity anchor: perf work must not move revenue
}

// PerfReport is the file schema of BENCH_greedy.json. Notes and
// SeedBaseline are hand-maintained context (e.g. the pre-optimization
// numbers a PR is measured against); regeneration via `make bench` drops
// them, but the committed history preserves the trajectory.
type PerfReport struct {
	GeneratedAt  string       `json:"generated_at"`
	Scale        string       `json:"scale"`
	Users        int          `json:"users"`
	Items        int          `json:"items"`
	Theta        float64      `json:"theta"`
	K            int          `json:"k"`
	Go           string       `json:"go"`
	NumCPU       int          `json:"numcpu"`
	MaxProcs     int          `json:"maxprocs"`
	Parallelism  int          `json:"parallelism"` // Params.Parallelism (0 = GOMAXPROCS)
	Notes        string       `json:"notes,omitempty"`
	Results      []PerfResult `json:"results"`
	SeedBaseline []PerfResult `json:"seed_baseline,omitempty"`
}

// runPerf benchmarks the algorithms (derived from the CLI-provided base
// params, so -theta, -k and -parallel apply) and writes the report to
// outPath ("-" for stdout only). Each algorithm is measured twice: the
// one-shot path (index + solve per call, what every pre-session caller
// pays) and the session path (one prebuilt Solver serving repeated solves),
// so the report quantifies how much session reuse amortizes indexing.
func runPerf(env *experiments.Env, scaleName, outPath string, base config.Params) error {
	type job struct {
		name string
		alg  config.Algorithm
		p    config.Params
	}
	pure, mixed := base, base
	pure.Strategy = config.Pure
	mixed.Strategy = config.Mixed
	jobs := []job{
		{"GreedyMerge/pure", config.GreedyAlgorithm(), pure},
		{"GreedyMerge/mixed", config.GreedyAlgorithm(), mixed},
		{"SolveMatching/pure", config.MatchingAlgorithm(), pure},
		{"SolveMatching/mixed", config.MatchingAlgorithm(), mixed},
	}
	report := PerfReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scale:       scaleName,
		Users:       env.DS.Users,
		Items:       env.DS.Items,
		Theta:       base.Theta,
		K:           base.K,
		Go:          runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		MaxProcs:    runtime.GOMAXPROCS(0),
		Parallelism: base.Parallelism,
	}
	record := func(name string, run func() (*config.Configuration, error)) error {
		var revenue float64
		var runErr error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg, err := run()
				if err != nil {
					runErr = err
					b.Fatal(err)
				}
				revenue = cfg.Revenue
			}
		})
		if runErr != nil {
			// b.Fatal inside testing.Benchmark yields a zero result rather
			// than aborting; surface the error instead of writing a bogus
			// all-zero row into the perf trajectory.
			return fmt.Errorf("%s: %w", name, runErr)
		}
		r := PerfResult{
			Name:        name,
			Iterations:  res.N,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Revenue:     revenue,
		}
		report.Results = append(report.Results, r)
		fmt.Printf("%-24s %12d ns/op %10d B/op %8d allocs/op  revenue=%.2f\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.Revenue)
		return nil
	}
	for _, j := range jobs {
		// One-shot: a fresh session per call, today's Solve* path.
		j := j
		if err := record(j.name, func() (*config.Configuration, error) {
			s, err := config.NewSolver(env.W, j.p)
			if err != nil {
				return nil, err
			}
			return s.Solve(j.alg)
		}); err != nil {
			return err
		}
		// Session: the solver prebuilt once, measuring second-and-later
		// solves on a warm index.
		s, err := config.NewSolver(env.W, j.p)
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		if err := record("Session/"+j.name, func() (*config.Configuration, error) {
			return s.Solve(j.alg)
		}); err != nil {
			return err
		}
	}
	// Re-solve after a PATCH, the loop the solve-* workloads of the repo
	// benchmark model: one op applies a 4-cell delta to a solved generation
	// and solves the derived session, whose first solve repairs the
	// round-one memo instead of pricing every pair. Every op derives from
	// the same solved base with the same delta, so the revenue is fixed.
	var cells []wtp.Cell
	for k := 0; k < 4; k++ {
		item := k * env.DS.Items / 4
		if post := env.W.Postings(item); len(post) > 0 {
			cells = append(cells, wtp.Cell{Consumer: post[0].Consumer, Item: item, Value: 1.5 * post[0].Value})
		}
	}
	for _, j := range jobs {
		base, err := config.NewSolver(env.W, j.p)
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		if _, err := base.Solve(j.alg); err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		if err := record("Resolve/"+j.name, func() (*config.Configuration, error) {
			next, err := base.ApplyDelta(cells, nil)
			if err != nil {
				return nil, err
			}
			return next.Solve(j.alg)
		}); err != nil {
			return err
		}
	}
	// Index-build cost on its own, so one-shot ≈ NewSolver + Session is
	// visible in the numbers.
	for _, j := range []job{{"NewSolver/pure", nil, pure}, {"NewSolver/mixed", nil, mixed}} {
		j := j
		if err := record(j.name, func() (*config.Configuration, error) {
			s, err := config.NewSolver(env.W, j.p)
			if err != nil {
				return nil, err
			}
			return s.Solve(config.ComponentsAlgorithm())
		}); err != nil {
			return err
		}
	}
	// What-if serving: Evaluate prices one proposed lineup, the per-request
	// unit of a scenario workload. One-shot re-indexes per request; the
	// warm session only pays for the evaluation itself.
	var offers [][]int
	for i := 0; i+1 < env.DS.Items && len(offers) < 10; i += 2 {
		offers = append(offers, []int{i, i + 1})
	}
	for _, j := range []job{{"Evaluate/pure", nil, pure}, {"Evaluate/mixed", nil, mixed}} {
		j := j
		if err := record(j.name, func() (*config.Configuration, error) {
			s, err := config.NewSolver(env.W, j.p)
			if err != nil {
				return nil, err
			}
			return s.Evaluate(offers)
		}); err != nil {
			return err
		}
		s, err := config.NewSolver(env.W, j.p)
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		if err := record("Session/"+j.name, func() (*config.Configuration, error) {
			return s.Evaluate(offers)
		}); err != nil {
			return err
		}
	}
	if outPath == "" || outPath == "-" {
		return nil
	}
	// Carry the hand-maintained trajectory context of an existing report
	// forward, so `make bench` regeneration doesn't silently erase it.
	if prev, err := os.ReadFile(outPath); err == nil {
		var old PerfReport
		if json.Unmarshal(prev, &old) == nil {
			report.Notes = old.Notes
			report.SeedBaseline = old.SeedBaseline
		}
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", outPath)
	return nil
}
