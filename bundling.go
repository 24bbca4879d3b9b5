// Package bundling finds revenue-maximizing bundle configurations from
// consumer preference data.
//
// It reproduces Do, Lauw and Wang, "Mining Revenue-Maximizing Bundling
// Configuration", PVLDB 8(5), 2015. Given a willingness-to-pay matrix —
// typically mined from ratings — the library partitions a seller's
// inventory into priced bundles (pure bundling) or layers bundles on top of
// individually sold components (mixed bundling) so as to maximize total
// expected revenue.
//
// # Quick start
//
//	w := bundling.NewMatrix(3, 2) // 3 consumers, 2 items
//	w.MustSet(0, 0, 12) // consumer 0 pays up to $12 for item 0
//	// ... fill the matrix ...
//	solver, err := bundling.NewSolver(w, bundling.Options{})
//	cfg, err := solver.Solve(bundling.Matching())
//	// cfg.Bundles now holds the priced bundle partition.
//
// NewSolver indexes the matrix once — striped columnar postings, priced
// singletons, pricing scratch pools — and the returned Solver then serves
// any number of solves and what-if evaluations, including concurrent ones
// from multiple goroutines. Algorithms are values implementing the
// Algorithm interface: Components (no bundling), Optimal2 (exact for
// bundles up to two items), Matching and Greedy (the paper's heuristics for
// any bundle size), and FreqItemset (the "frequently bought together"
// baseline); Algorithms lists all five, AlgorithmByName resolves CLI
// names, and Solver.Evaluate prices caller-proposed configurations. The
// one-shot Solve* functions remain as thin wrappers that build a throwaway
// session per call.
//
// Willingness to pay can be mined from star ratings with FromRatings, or
// synthesized at any scale with the dataset generator in GenerateDataset.
// See the examples directory for end-to-end programs.
//
// # Storage and stripe sizing
//
// A Solver stores the matrix as fixed-size consumer stripes with columnar
// per-stripe postings: scans touch one stripe's contiguous arrays at a
// time, and per-stripe work units are independent, ready to be farmed to
// worker goroutines (or, eventually, other machines). Options.StripeSize
// sets the consumers-per-stripe (default 1024). Results are identical for
// any stripe size; tune it only for locality — smaller stripes when bundle
// scans thrash the cache on very dense corpora, larger ones to shave
// per-stripe overhead on small matrices. Each stripe holds items + 1
// offsets whatever its entry count, so NewSolver rejects a stripe size
// that needs more than 2^20 offsets in all; a wide matrix needs larger
// stripes.
//
// # Performance
//
// The configuration algorithms run on an incremental merge-evaluation
// engine. Candidate merges derive the merged bundle's interested-consumer
// vector from the two parents' cached vectors in O(|a|+|b|) (striped
// unions) instead of rescanning the raw item postings; candidate pricing
// runs entirely in per-worker scratch buffers, building a bundle node
// only for a merge an algorithm takes; mixed-bundling price search sweeps
// all T price levels in O(m + T) by hashing consumers into price-level
// buckets by their switch-threshold price rather than rescanning all m
// consumers per level; and both the initial pair seeding and the
// per-iteration re-pricing after each merge are evaluated by a chunked
// parallel worker pool (Options via config.Params.Parallelism; results are
// deterministic regardless of worker count).
//
// Measured on the 600×150 bench corpus (single core, see
// BENCH_greedy.json): mixed greedy 3.41s → 0.64s per run (5.3×) with 7.8×
// fewer allocations, mixed matching 1.79s → 0.37s (4.9×) with 7.4× fewer,
// pure variants ~1.9× faster with ~80× fewer allocations — with revenues
// matching the reference postings-scan path within 1e-9 (the fast path
// reorders float arithmetic), as enforced by the equivalence property
// tests in internal/config, internal/wtp and internal/pricing. Session
// reuse amortizes the remaining indexing: repeated solves on one Solver
// skip shard construction and singleton pricing entirely (see the
// Solver/* rows in BENCH_greedy.json).
//
// # Serving
//
// For multi-user traffic, the cmd/bundled daemon serves Solver sessions
// over HTTP: upload a WTP corpus (the MatrixDoc JSON form or a ratings
// CSV) to create a named session, then hit it concurrently with solve and
// what-if evaluate requests. The serving layer adds an LRU-bounded result
// cache keyed by exact corpus version (a re-upload can never be served
// stale results), a micro-batcher that coalesces concurrent identical
// evaluate requests into one execution, Prometheus metrics, and graceful
// session eviction. Run with -data-dir, the daemon persists every uploaded
// corpus and restores its sessions — with identical results — after a
// restart; run with -auth-keys (or -auth-file) it serves multiple tenants
// with API-key authentication, per-tenant corpus ownership and quotas.
// The bundling/client package is the Go client; see the README's Serving
// section for a curl quickstart, docs/API.md and docs/OPERATIONS.md for
// the full wire and operations references, and bench/README.md for the
// benchmark that drives the daemons end to end.
//
// To scale past one machine, the same daemon runs as a cluster
// coordinator (bundled -workers host:port,...): each corpus's stripes are
// partitioned into spans shipped to cmd/bundleworker daemons, and solves
// and evaluates scatter per span and gather in stripe order, with corpus
// version checks on every RPC and a local fallback so a degraded fleet
// affects throughput, never results. See the README's Scaling out section
// and cmd/bundlebench -exp chaos (BENCH_chaos.json).
package bundling

import (
	"context"
	"fmt"

	"bundling/internal/adoption"
	"bundling/internal/config"
	"bundling/internal/wtp"
)

// Matrix is an M consumers × N items willingness-to-pay matrix, the input
// of every bundling algorithm.
type Matrix = wtp.Matrix

// Rating is one (consumer, item, stars) observation used by FromRatings.
type Rating = wtp.Rating

// Bundle is one priced offer of a configuration.
type Bundle = config.Bundle

// Configuration is the result of a bundling algorithm: priced top-level
// bundles, retained components (mixed bundling), total expected revenue and
// an iteration trace.
type Configuration = config.Configuration

// Strategy selects pure or mixed bundling.
type Strategy = config.Strategy

// The two bundling strategies of the paper (Sec. 3.2).
const (
	Pure  = config.Pure
	Mixed = config.Mixed
)

// Unlimited disables the bundle size cap.
const Unlimited = config.Unlimited

// NewMatrix returns an all-zero willingness-to-pay matrix.
func NewMatrix(consumers, items int) *Matrix {
	return wtp.MustNew(consumers, items)
}

// NewMatrixChecked is NewMatrix with dimension validation surfaced as an
// error instead of a panic — the form servers use on untrusted input.
func NewMatrixChecked(consumers, items int) (*Matrix, error) {
	return wtp.New(consumers, items)
}

// FromRatings mines willingness to pay from star ratings (1..5) and item
// list prices using the paper's linear conversion with factor λ ≥ 1
// (Sec. 6.1.1): WTP = stars/5 · λ · price.
func FromRatings(consumers, items int, ratings []Rating, prices []float64, lambda float64) (*Matrix, error) {
	return wtp.FromRatings(consumers, items, ratings, prices, lambda)
}

// Options configures a bundling run. The zero value reproduces the paper's
// defaults (Table 3): pure bundling, θ = 0, unlimited bundle size,
// deterministic step adoption, 100 price levels.
type Options struct {
	// Strategy selects Pure (default) or Mixed bundling.
	Strategy Strategy
	// Theta is the bundling coefficient of Eq. 1: negative for substitute
	// items, zero for independent (default), positive for complements.
	// Must be > -1.
	Theta float64
	// MaxBundleSize caps bundle sizes (the paper's k); Unlimited (0)
	// disables the cap.
	MaxBundleSize int
	// Gamma is the stochastic price sensitivity (0 = step function). See
	// Sec. 4.1: lower values model noisier adoption decisions.
	Gamma float64
	// Alpha is the adoption bias (0 = unbiased, i.e. α = 1).
	Alpha float64
	// PriceLevels is the number of discrete price levels T (0 = 100; at
	// most 65,536).
	PriceLevels int
	// ProfitWeight is the seller's objective weight between profit and
	// consumer surplus: utility = weight·profit + (1-weight)·surplus
	// (paper Sec. 1). 0 selects the paper's default of 1 (profit only).
	// To optimize pure consumer surplus pass a tiny positive value; an
	// exact 0 is indistinguishable from "unset".
	ProfitWeight float64
	// UnitCosts holds per-item variable costs (nil = zero cost, the
	// information-goods setting where profit equals revenue). A bundle's
	// unit cost is the sum of its items' costs.
	UnitCosts []float64
	// StripeSize is the number of consumers per storage stripe of the
	// solver's sharded WTP index (0 = 1024). Results are identical for any
	// value; see the package doc on stripe sizing.
	StripeSize int
	// Parallelism caps the worker goroutines used for candidate pricing and
	// index building (0 = GOMAXPROCS). Results are deterministic regardless.
	Parallelism int
}

func (o Options) params() (config.Params, error) {
	p := config.DefaultParams()
	p.Strategy = o.Strategy
	p.Theta = o.Theta
	p.K = o.MaxBundleSize
	if o.PriceLevels != 0 {
		p.PriceLevels = o.PriceLevels
	}
	if o.ProfitWeight != 0 {
		p.ProfitWeight = o.ProfitWeight
	}
	p.UnitCosts = o.UnitCosts
	p.StripeSize = o.StripeSize
	p.Parallelism = o.Parallelism
	gamma := o.Gamma
	if gamma == 0 {
		gamma = adoption.DefaultGamma
	}
	alpha := o.Alpha
	if alpha == 0 {
		alpha = adoption.DefaultAlpha
	}
	m, err := adoption.New(gamma, alpha, adoption.DefaultEpsilon)
	if err != nil {
		return p, err
	}
	p.Model = m
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// Algorithm is one bundle-configuration algorithm, runnable on a Solver
// session via Solver.Solve or through the one-shot Solve* wrappers.
type Algorithm = config.Algorithm

// Components returns the individual-pricing baseline (no bundling).
func Components() Algorithm { return config.ComponentsAlgorithm() }

// Optimal2 returns the exact solver for bundles of up to two items
// (Sec. 5.1); it ignores Options.MaxBundleSize.
func Optimal2() Algorithm { return config.Optimal2Algorithm() }

// Matching returns the matching-based heuristic (Algorithm 1), the method
// the paper's evaluation recommends.
func Matching() Algorithm { return config.MatchingAlgorithm() }

// Greedy returns the greedy merge heuristic (Algorithm 2).
func Greedy() Algorithm { return config.GreedyAlgorithm() }

// FreqItemset returns the "frequently bought together" baseline. minSupport
// is the relative minimum support; 0 selects the paper's tuned 0.001.
func FreqItemset(minSupport float64) Algorithm {
	if minSupport == 0 {
		minSupport = config.DefaultFreqItemsetOptions().MinSupport
	}
	return config.FreqItemsetAlgorithm(config.FreqItemsetOptions{MinSupport: minSupport})
}

// Algorithms lists the five algorithms with default options, in the
// paper's presentation order.
func Algorithms() []Algorithm { return config.Algorithms() }

// AlgorithmByName resolves a stable algorithm name ("components",
// "optimal2", "matching", "greedy", "freqitemset") to its
// default-configured implementation.
func AlgorithmByName(name string) (Algorithm, error) { return config.AlgorithmByName(name) }

// Solver is a long-lived bundling session over one matrix and one option
// set. NewSolver indexes the matrix once; the Solver then serves any
// number of Solve and Evaluate calls, including concurrent ones, without
// re-indexing — the serving-path API for what-if workloads. The matrix
// must not be mutated while the Solver is in use.
type Solver struct {
	inner *config.Solver
}

// NewSolver builds a session for the matrix under the given options.
func NewSolver(w *Matrix, opts Options) (*Solver, error) {
	return NewSolverOn(w, opts, nil)
}

// StripeExecutor computes the striped consumer-axis reductions a Solver's
// vector construction runs on. The default executor is the session's local
// sharded index; a distributed deployment (see internal/cluster and the
// cmd/bundled -workers flag) plugs in a scatter/gather executor that farms
// each stripe span to the remote worker owning it.
type StripeExecutor = config.StripeExecutor

// NewSolverOn is NewSolver with a pluggable stripe executor; nil selects
// the local shard, making it identical to NewSolver.
func NewSolverOn(w *Matrix, opts Options, exec StripeExecutor) (*Solver, error) {
	p, err := opts.params()
	if err != nil {
		return nil, err
	}
	inner, err := config.NewSolverOn(w, p, exec)
	if err != nil {
		return nil, err
	}
	return &Solver{inner: inner}, nil
}

// DeltaCell is one cell mutation of a corpus delta: set (Consumer, Item) to
// Value, or remove the cell when Delete is set. Later cells of one delta
// override earlier ones for the same coordinate.
type DeltaCell = wtp.Cell

// ApplyDelta derives a new session with the delta applied, leaving the
// receiver untouched and still serving its own snapshot. The mutation is
// incremental: the matrix is patched copy-on-write, only the index stripes
// holding mutated consumers rebuild, and only the mutated items' priced
// singleton prototypes re-price. The new session's first Optimal2, matching
// or greedy solve likewise prices only the item pairs the delta touched and
// re-prices the receiver's surviving pairs. The new session's
// Stats().Version advances by exactly one, which is what invalidates
// version-keyed result caches.
func (s *Solver) ApplyDelta(cells []DeltaCell) (*Solver, error) {
	return s.ApplyDeltaOn(cells, nil)
}

// ApplyDeltaOn is ApplyDelta with a pluggable stripe executor for the new
// session; nil selects the patched local shard, making it identical to
// ApplyDelta.
func (s *Solver) ApplyDeltaOn(cells []DeltaCell, exec StripeExecutor) (*Solver, error) {
	inner, err := s.inner.ApplyDelta(cells, exec)
	if err != nil {
		return nil, err
	}
	return &Solver{inner: inner}, nil
}

// Aggregator computes the distributed pricing aggregates of the
// scatter/gather evaluate path; see the config package for the reduction
// contract.
type Aggregator = config.Aggregator

// EvaluateAggregated prices a pure-bundling offer family from reduced
// pricing histograms supplied by agg instead of gathered consumer vectors —
// the distributed evaluate fast path. See config.Solver.EvaluateAggregated.
func (s *Solver) EvaluateAggregated(offers [][]int, agg Aggregator) (*Configuration, error) {
	return s.inner.EvaluateAggregated(offers, agg)
}

// EvaluateAggregatedContext is EvaluateAggregated under a context: ctx is
// handed to every aggregator reduction and checked between offers, so
// distributed evaluates inherit the caller's deadline.
func (s *Solver) EvaluateAggregatedContext(ctx context.Context, offers [][]int, agg Aggregator) (*Configuration, error) {
	return s.inner.EvaluateAggregatedContext(ctx, offers, agg)
}

// Solve runs an algorithm on the session.
func (s *Solver) Solve(a Algorithm) (*Configuration, error) { return s.inner.Solve(a) }

// SolveContext is Solve under a context: a canceled or expired ctx aborts
// the run at its next iteration boundary with the context's error, so a
// serving layer can bound solve latency and stop work for disconnected
// callers.
func (s *Solver) SolveContext(ctx context.Context, a Algorithm) (*Configuration, error) {
	return s.inner.SolveContext(ctx, a)
}

// Evaluate prices a caller-proposed configuration on the session — the
// "what-if" counterpart of Solve. offers lists the item sets to put on
// sale; the engine picks each offer's optimal price. Offers must be
// pairwise disjoint under pure bundling and laminar (disjoint or nested)
// under mixed bundling; they need not cover every item.
func (s *Solver) Evaluate(offers [][]int) (*Configuration, error) { return s.inner.Evaluate(offers) }

// EvaluateContext is Evaluate under a context: a canceled or expired ctx
// aborts the evaluation between offers with the context's error.
func (s *Solver) EvaluateContext(ctx context.Context, offers [][]int) (*Configuration, error) {
	return s.inner.EvaluateContext(ctx, offers)
}

// Algorithms lists the algorithms runnable on this session.
func (s *Solver) Algorithms() []Algorithm { return config.Algorithms() }

// SolverStats describes a session's indexed corpus: matrix dimensions,
// non-zero entry count, stripe layout, the snapshot version and the
// aggregate WTP. Serving layers report these per session and key result
// caches on Version.
type SolverStats = config.SolverStats

// Stats returns the session's corpus and index statistics.
func (s *Solver) Stats() SolverStats { return s.inner.Stats() }

// SpanDoc is the wire form of one contiguous stripe span of a session's
// striped index — the unit of work a distributed coordinator ships to a
// remote worker (see internal/cluster and the cmd/bundled -workers mode).
type SpanDoc = wtp.SpanDoc

// Spans cuts the session's striped index into at most n contiguous,
// balanced stripe-span documents, reusing the shard the session already
// built.
func (s *Solver) Spans(n int) []*SpanDoc { return s.inner.Spans(n) }

// PricingGrid reports the session's effective pricing discretization: the
// number of price levels T and the adoption bias α. A distributed
// aggregator must bucket its histograms on exactly this grid, so it reads
// the values from the built session rather than re-deriving option
// defaults.
func (s *Solver) PricingGrid() (levels int, alpha float64) {
	p := s.inner.Params()
	return p.PriceLevels, p.Model.Alpha()
}

// Configure finds a revenue-maximizing bundle configuration using the
// paper's matching-based heuristic (Algorithm 1), the method its evaluation
// recommends: it attains the highest revenue coverage in the least time and
// is optimal for bundle sizes up to two.
func Configure(w *Matrix, opts Options) (*Configuration, error) {
	return SolveMatching(w, opts)
}

// SolveComponents prices every item individually (no bundling) — the
// baseline every bundling strategy is measured against.
func SolveComponents(w *Matrix, opts Options) (*Configuration, error) {
	return solveOneShot(w, opts, Components())
}

// solveOneShot runs an algorithm on a throwaway session, the compatibility
// path behind the Solve* wrappers.
func solveOneShot(w *Matrix, opts Options, a Algorithm) (*Configuration, error) {
	s, err := NewSolver(w, opts)
	if err != nil {
		return nil, err
	}
	return s.Solve(a)
}

// SolveComponentsAt prices every item at the given fixed prices (e.g. a
// marketplace's list prices) instead of optimal prices.
func SolveComponentsAt(w *Matrix, prices []float64, opts Options) (*Configuration, error) {
	p, err := opts.params()
	if err != nil {
		return nil, err
	}
	return config.ComponentsAtPrices(w, prices, p)
}

// SolveOptimal2 solves the 2-sized bundling problem exactly via
// maximum-weight graph matching (Sec. 5.1). Options.MaxBundleSize is
// ignored (forced to 2).
func SolveOptimal2(w *Matrix, opts Options) (*Configuration, error) {
	return solveOneShot(w, opts, Optimal2())
}

// SolveMatching runs the matching-based heuristic (Algorithm 1) for
// arbitrary bundle sizes.
func SolveMatching(w *Matrix, opts Options) (*Configuration, error) {
	return solveOneShot(w, opts, Matching())
}

// SolveGreedy runs the greedy merge heuristic (Algorithm 2) for arbitrary
// bundle sizes.
func SolveGreedy(w *Matrix, opts Options) (*Configuration, error) {
	return solveOneShot(w, opts, Greedy())
}

// SolveFreqItemset runs the "frequently bought together" baseline: bundle
// candidates are maximal frequent itemsets of the consumers' interest
// transactions, greedily selected by revenue gain. minSupport is the
// relative minimum support; the paper tunes it to 0.001.
func SolveFreqItemset(w *Matrix, minSupport float64, opts Options) (*Configuration, error) {
	return solveOneShot(w, opts, FreqItemset(minSupport))
}

// Evaluate prices a caller-proposed configuration — the "what-if"
// counterpart of the Solve functions. offers lists the item sets to put on
// sale; the engine picks each offer's optimal price under opts. Offers
// must be pairwise disjoint under pure bundling and laminar (disjoint or
// nested) under mixed bundling; they need not cover every item.
func Evaluate(w *Matrix, offers [][]int, opts Options) (*Configuration, error) {
	s, err := NewSolver(w, opts)
	if err != nil {
		return nil, err
	}
	return s.Evaluate(offers)
}

// Coverage returns the revenue coverage (%) of a configuration: its revenue
// as a share of the aggregate willingness to pay, the upper bound of any
// revenue (Sec. 6.1.2).
func Coverage(cfg *Configuration, w *Matrix) float64 {
	if w.Total() <= 0 {
		return 0
	}
	return cfg.Revenue / w.Total() * 100
}

// Gain returns the revenue gain (%) of a configuration over the Components
// baseline computed with the same options.
func Gain(cfg *Configuration, w *Matrix, opts Options) (float64, error) {
	comp, err := SolveComponents(w, opts)
	if err != nil {
		return 0, err
	}
	if comp.Revenue <= 0 {
		return 0, fmt.Errorf("bundling: components baseline has no revenue")
	}
	return (cfg.Revenue - comp.Revenue) / comp.Revenue * 100, nil
}
