// Command bundlebench regenerates the paper's tables and figures.
//
// Usage:
//
//	bundlebench -exp all                  # everything, bench scale
//	bundlebench -exp fig2 -scale full     # θ sweep at the paper's scale
//	bundlebench -exp wsp                  # Tables 4 & 5
//
// Experiments: table1, table2, fig2, fig3, fig4, fig5, fig6, fig7, wsp
// (Tables 4+5), case (Table 6), ablations, joint (incremental-vs-joint
// pricing study), welfare, stats (dataset summary), all. Four more are
// not part of `all`, and each writes its own report with -benchout:
// `perf` benchmarks the algorithm hot paths (BENCH_greedy.json); `chaos`
// drives the distributed evaluate path under injected transport faults at
// rising rates, equivalence-checking every result (BENCH_chaos.json);
// `codec` certifies the binary columnar wire/disk format — payload bytes
// and throughput vs JSON plus all-algorithm equivalence over a binary-fed
// fleet (BENCH_codec.json); `mutate` times a PATCH delta against a full
// re-upload (BENCH_mutate.json). The serving daemons are benchmarked by
// the bench/ module.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"bundling/internal/config"
	"bundling/internal/experiments"
)

// experimentNames lists every -exp name.
var experimentNames = []string{"table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "wsp", "case", "ablations", "joint", "welfare", "stats", "perf", "chaos", "codec", "mutate", "all"}

// benchmarks are the experiments `all` leaves out: each reruns algorithms
// many times or drives sustained load, and each writes its own -benchout
// report.
var benchmarks = []struct {
	name string
	run  func(env *experiments.Env, scaleName, outPath string, base config.Params) error
}{
	{"perf", runPerf},
	{"chaos", runChaos},
	{"codec", runCodec},
	{"mutate", runMutate},
}

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experimentNames, ","))
		scaleFlag = flag.String("scale", "bench", "dataset scale: small, bench, full")
		lambda    = flag.Float64("lambda", experiments.DefaultLambda, "ratings→WTP conversion factor λ")
		theta     = flag.Float64("theta", 0, "bundling coefficient θ")
		k         = flag.Int("k", config.Unlimited, "max bundle size (0 = unlimited)")
		seed      = flag.Int64("seed", 42, "dataset generator seed")
		benchOut  = flag.String("benchout", "", "perf/chaos/codec/mutate experiments: write JSON results to this file (e.g. BENCH_greedy.json)")
		parallel  = flag.Int("parallel", 0, "candidate-pricing workers (0 = GOMAXPROCS); recorded in the perf report")
	)
	flag.Parse()
	if err := run(*expFlag, *scaleFlag, *lambda, *theta, *k, *seed, *benchOut, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "bundlebench:", err)
		os.Exit(1)
	}
}

func run(exp, scaleName string, lambda, theta float64, k int, seed int64, benchOut string, parallel int) error {
	wants := map[string]bool{}
	for _, e := range strings.Split(exp, ",") {
		e = strings.TrimSpace(e)
		if !slices.Contains(experimentNames, e) {
			return fmt.Errorf("unknown experiment %q (want %s)", e, strings.Join(experimentNames, ", "))
		}
		wants[e] = true
	}
	selected := 0
	for _, b := range benchmarks {
		if wants[b.name] {
			selected++
		}
	}
	if benchOut != "" && selected != 1 {
		// Each benchmark writes its own report schema to -benchout, so
		// with none the file would never be written and with two the
		// second would overwrite the first.
		return fmt.Errorf("-benchout needs exactly one of -exp perf, chaos, codec or mutate, got %d", selected)
	}

	var scale experiments.Scale
	switch scaleName {
	case "small":
		scale = experiments.SmallScale()
	case "bench":
		scale = experiments.BenchScale()
	case "full":
		scale = experiments.FullScale()
	default:
		return fmt.Errorf("unknown scale %q (want small, bench, full)", scaleName)
	}
	scale.Seed = seed

	params := config.DefaultParams()
	params.Theta = theta
	params.K = k
	params.Parallelism = parallel

	all := wants["all"]
	need := func(name string) bool { return all || wants[name] }

	// Table 1 needs no dataset; every other experiment does.
	if need("table1") {
		res, err := experiments.Table1()
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if len(wants) == 1 && wants["table1"] {
		return nil
	}
	start := time.Now()
	env, err := experiments.Setup(scale, lambda)
	if err != nil {
		return err
	}
	st := env.DS.Summarize()
	fmt.Printf("dataset: %d users, %d items, %d ratings (generated in %.1fs)\n\n",
		st.Users, st.Items, st.Ratings, time.Since(start).Seconds())
	for _, b := range benchmarks {
		if !wants[b.name] {
			continue
		}
		if err := b.run(env, scaleName, benchOut, params); err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
	}
	if need("stats") {
		fmt.Printf("star shares: %.0f%% %.0f%% %.0f%% %.0f%% %.0f%% (1..5)\n",
			st.StarShare[0]*100, st.StarShare[1]*100, st.StarShare[2]*100, st.StarShare[3]*100, st.StarShare[4]*100)
		fmt.Printf("price shares: %.0f%% <$10, %.0f%% $10-20, %.0f%% >$20\n\n",
			st.PriceShare[0]*100, st.PriceShare[1]*100, st.PriceShare[2]*100)
	}
	type step struct {
		name string
		fn   func() (interface{ Render() string }, error)
	}
	steps := []step{
		{"table2", func() (interface{ Render() string }, error) {
			return experiments.Table2(env, experiments.DefaultLambdas(), params)
		}},
		{"fig2", func() (interface{ Render() string }, error) {
			return experiments.Figure2(env, experiments.DefaultThetas(), params)
		}},
		{"fig3", func() (interface{ Render() string }, error) {
			return experiments.Figure3(env, experiments.DefaultGammas(), params)
		}},
		{"fig4", func() (interface{ Render() string }, error) {
			p := params
			return experiments.Figure4(env, experiments.DefaultAlphas(), p)
		}},
		{"fig5", func() (interface{ Render() string }, error) {
			return experiments.Figure5(env, experiments.DefaultSizes(), params)
		}},
		{"fig6", func() (interface{ Render() string }, error) {
			return experiments.Figure6(env, params)
		}},
		{"fig7", func() (interface{ Render() string }, error) {
			quarter := env.DS.Items / 4
			counts := []int{quarter, 2 * quarter, 3 * quarter, env.DS.Items}
			return experiments.Figure7(env, experiments.DefaultUserFactors(), counts, params)
		}},
		{"wsp", func() (interface{ Render() string }, error) {
			opts := experiments.DefaultWSPOptions()
			if scaleName == "full" {
				opts = experiments.PaperWSPOptions()
			}
			return experiments.WSP(env, opts, params)
		}},
		{"case", func() (interface{ Render() string }, error) {
			return experiments.CaseStudy(env, params, seed)
		}},
		{"ablations", func() (interface{ Render() string }, error) {
			return experiments.Ablations(env, params)
		}},
		{"joint", func() (interface{ Render() string }, error) {
			return experiments.JointPolicy(env, 30, params, seed)
		}},
		{"welfare", func() (interface{ Render() string }, error) {
			return experiments.Welfare(env, params)
		}},
	}
	for _, s := range steps {
		if !need(s.name) {
			continue
		}
		t0 := time.Now()
		res, err := s.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Println(res.Render())
		fmt.Printf("(%s completed in %.1fs)\n\n", s.name, time.Since(t0).Seconds())
	}
	return nil
}
