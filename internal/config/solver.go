package config

import (
	"context"
	"sync"
	"sync/atomic"

	"bundling/internal/obs"
	"bundling/internal/pricing"
	"bundling/internal/wtp"
)

// Solver is a long-lived bundling session over one WTP matrix and one
// parameter set. It is built once (NewSolver) and then serves any number of
// solves — including concurrent ones — without re-indexing: the striped
// shard of the matrix, the priced singleton nodes every algorithm starts
// from, the frequent-itemset transaction lists, and the pricing scratch
// pools all persist across calls. This is what turns the one-shot Solve*
// functions into a serving engine: a what-if workload prices hundreds of
// scenarios against the same matrix, and only the first solve pays for
// indexing.
//
// All mutable per-run state lives in a per-solve engine; the Solver itself
// holds only immutable snapshots, sync.Pool-recycled scratch, an
// atomically published round-one memo and its lineage's locked later-round
// memo, so one Solver may be shared freely between goroutines.
type Solver struct {
	w      *wtp.Matrix
	sh     *wtp.Shard
	exec   StripeExecutor
	params Params
	pr     *pricing.Pricer
	k      int
	// protos are the priced singleton nodes (X_I of Algorithms 1 and 2),
	// including the mixed-bundling per-consumer state. Runs copy the node
	// headers and share the vectors read-only.
	protos []*node
	// ctxPool recycles per-worker evaluation contexts (merge scratch +
	// pricing scratch) across runs and across the workers within a run.
	ctxPool sync.Pool
	// txs are the consumers' interest transactions, mined lazily on the
	// first FreqItemset solve and shared by later ones.
	txsOnce sync.Once
	txs     [][]int
	// round1 is the round-one memo (see roundMemo): nil until the first
	// pair-based solve builds it, or pending when inherited by ApplyDelta.
	round1 atomic.Pointer[roundMemo]
	// lin is shared by every session ApplyDelta derives from the one
	// NewSolver built: node identities and the later-round memo.
	lin *lineage
}

// StripeExecutor computes the striped consumer-axis reductions every
// algorithm's vector construction runs on. The local *wtp.Shard is the
// default executor (Shard.ForEachStripe being its single-machine farming
// form); a distributed solver plugs in a scatter/gather executor that ships
// each stripe span's share of the work to the remote worker owning it and
// concatenates the per-span results in stripe order. Implementations must be
// equivalent to the shard reductions (within float re-association) and safe
// for concurrent use — concurrent solves and evaluates of one session share
// them.
// Every method receives the run's request context: a distributed executor
// derives its per-RPC deadlines from it, so a canceled caller aborts the
// fan-out instead of letting retries outlive the request. Implementations
// must still return a correct result when the context is done (the local
// shard ignores it; the cluster executor falls back to its local replica) —
// run abortion is the engine's job, via its own cancellation checks.
type StripeExecutor interface {
	// BundleVector builds a bundle's interested-consumer vector (Eq. 1),
	// appending into the dst slices; see wtp.Shard.BundleVector.
	BundleVector(ctx context.Context, items []int, theta float64, dstIDs []int, dstVals []float64) ([]int, []float64)
	// BundleVectors builds the vector of every set, sets[k] under
	// thetas[k], in one call — one scatter round on a distributed
	// executor, however many sets there are. The returned slices are
	// fresh and aligned with sets.
	BundleVectors(ctx context.Context, sets [][]int, thetas []float64) ([][]int, [][]float64)
}

// localExec adapts the local *wtp.Shard to the StripeExecutor contract: the
// shard's reductions are in-process and synchronous, so the request context
// carries no deadline worth plumbing further down.
type localExec struct{ sh *wtp.Shard }

func (l localExec) BundleVector(_ context.Context, items []int, theta float64, dstIDs []int, dstVals []float64) ([]int, []float64) {
	return l.sh.BundleVector(items, theta, dstIDs, dstVals)
}

func (l localExec) BundleVectors(_ context.Context, sets [][]int, thetas []float64) ([][]int, [][]float64) {
	ids, vals := make([][]int, len(sets)), make([][]float64, len(sets))
	for k, items := range sets {
		ids[k], vals[k] = l.sh.BundleVector(items, thetas[k], nil, nil)
	}
	return ids, vals
}

// NewSolver validates params, indexes the matrix (striped shard + priced
// singletons) and returns a session ready for concurrent solves. The matrix
// must not be mutated while the Solver is in use; the shard layer turns
// violations into a panic rather than stale results.
func NewSolver(w *wtp.Matrix, params Params) (*Solver, error) {
	return NewSolverOn(w, params, nil)
}

// NewSolverOn is NewSolver with a pluggable stripe executor: the session's
// bundle vectors built from the postings — mined itemsets and
// evaluate-path offers — run on exec instead of the local shard.
// Singletons index from the local shard, and a candidate merge's vector is
// the union of its parents' cached vectors, formed in process. A nil exec
// selects the shard, making NewSolverOn(w, p, nil) identical to
// NewSolver(w, p).
func NewSolverOn(w *wtp.Matrix, params Params, exec StripeExecutor) (*Solver, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if params.UnitCosts != nil && len(params.UnitCosts) != w.Items() {
		return nil, errCostCount(len(params.UnitCosts), w.Items())
	}
	pr, err := params.pricer()
	if err != nil {
		return nil, err
	}
	sh, err := w.Shard(params.StripeSize)
	if err != nil {
		return nil, err
	}
	s := &Solver{
		w:      w,
		sh:     sh,
		exec:   exec,
		params: params,
		pr:     pr,
		k:      params.maxSize(),
		lin:    newLineage(params),
	}
	if s.exec == nil {
		s.exec = localExec{s.sh}
	}
	e := s.newEngine()
	defer e.release()
	s.protos = e.buildSingletons()
	return s, nil
}

// Solve runs the algorithm on this session.
func (s *Solver) Solve(a Algorithm) (*Configuration, error) {
	return a.Solve(context.Background(), s)
}

// SolveContext is Solve with a request context: the run aborts with the
// context's error at its next iteration boundary once the context is
// canceled or past its deadline, and a distributed session derives every
// worker RPC deadline from it.
func (s *Solver) SolveContext(ctx context.Context, a Algorithm) (*Configuration, error) {
	ctx, sp := obs.StartSpan(ctx, "solve")
	sp.Tag("algorithm", a.Name())
	cfg, err := a.Solve(ctx, s)
	if cfg != nil {
		sp.Tag("iterations", cfg.Iterations)
	}
	if sp != nil { // bytes walks the memo under its lock: only for a traced solve
		sp.Tag("memo_bytes", s.lin.memo.bytes())
	}
	sp.End()
	return cfg, err
}

// Params returns the session's parameters.
func (s *Solver) Params() Params { return s.params }

// Matrix returns the session's WTP matrix.
func (s *Solver) Matrix() *wtp.Matrix { return s.w }

// SolverStats describes a session's indexed corpus — the introspection a
// serving layer needs to report sessions and to build cache keys.
type SolverStats struct {
	Consumers  int     // matrix rows
	Items      int     // matrix columns
	Entries    int     // non-zero WTP entries
	Stripes    int     // stripes of the sharded index
	StripeSize int     // consumers per stripe
	Version    uint64  // matrix version the index snapshotted
	TotalWTP   float64 // aggregate WTP (upper bound of any revenue)
}

// Spans cuts the session's striped index into at most n contiguous,
// balanced stripe-span documents — the work units a distributed coordinator
// ships to its workers. Reading the session's own shard (rather than
// re-sharding the matrix) keeps span extraction free of a second O(entries)
// index build.
func (s *Solver) Spans(n int) []*wtp.SpanDoc {
	stripes := s.sh.Stripes()
	if n > stripes {
		n = stripes
	}
	if n < 1 {
		n = 1
	}
	out := make([]*wtp.SpanDoc, 0, n)
	for i := 0; i < n; i++ {
		s0 := i * stripes / n
		s1 := (i + 1) * stripes / n
		if s1 > s0 {
			out = append(out, s.sh.Span(s0, s1))
		}
	}
	return out
}

// Stats returns the session's corpus and index statistics. The Version field
// identifies the snapshot the session serves: results computed by this
// Solver are valid exactly for that matrix version, which is what a result
// cache in front of the session should key on.
func (s *Solver) Stats() SolverStats {
	return SolverStats{
		Consumers:  s.w.Consumers(),
		Items:      s.w.Items(),
		Entries:    s.w.Entries(),
		Stripes:    s.sh.Stripes(),
		StripeSize: s.sh.StripeSize(),
		Version:    s.sh.Version(),
		TotalWTP:   s.w.Total(),
	}
}

// getCtx borrows a worker context from the pool.
func (s *Solver) getCtx() *workerCtx {
	if ctx, ok := s.ctxPool.Get().(*workerCtx); ok {
		return ctx
	}
	return &workerCtx{sc: &mergeScratch{}, psc: pricing.NewScratch(s.pr.Levels())}
}

func (s *Solver) putCtx(ctx *workerCtx) { s.ctxPool.Put(ctx) }

// transactions returns the consumers' interest transactions (each consumer's
// ascending item list), built once per session. The stripes partition the
// consumer axis, so the per-stripe fill writes disjoint rows and can be
// farmed to workers without locks.
func (s *Solver) transactions() [][]int {
	s.txsOnce.Do(func() {
		txs := make([][]int, s.w.Consumers())
		items := s.w.Items()
		s.sh.ForEachStripe(s.params.parallelism(), func(_ int, st *wtp.Stripe) {
			for i := 0; i < items; i++ {
				ids, _ := st.Item(i)
				for _, id := range ids {
					txs[id] = append(txs[id], i)
				}
			}
		})
		s.txs = txs
	})
	return s.txs
}

// engine carries one solve's mutable state: its scratch contexts and the
// run-local bundle-size cap. Engines are cheap — everything heavy lives on
// the Solver — and must be released when the run ends so the contexts
// return to the pool.
type engine struct {
	s      *Solver
	w      *wtp.Matrix
	sh     *wtp.Shard
	exec   StripeExecutor
	params Params
	pr     *pricing.Pricer
	reqCtx context.Context // the run's request context (cancellation/deadline)
	ctx    *workerCtx      // the run's serial-path context
	k      int             // effective bundle-size cap (Optimal2 overrides per run)
	// incremental routes candidate-merge vector construction through the
	// parents' cached vectors (their union) instead of a postings rescan;
	// the equivalence tests set Params.referenceEval to diff the two paths.
	incremental bool
	// borrowed are the extra worker contexts this run's evalPairs rounds
	// took from the pool; released with the engine.
	borrowed []*workerCtx
	built    int // merged nodes built (merges taken)
}

// newEngine opens a run on the session with no cancellation.
func (s *Solver) newEngine() *engine {
	return s.newEngineCtx(context.Background())
}

// newEngineCtx opens a run bound to a request context: the run's iteration
// boundaries observe cancellation, and the stripe executor derives worker
// RPC deadlines from it.
func (s *Solver) newEngineCtx(ctx context.Context) *engine {
	if ctx == nil {
		ctx = context.Background()
	}
	return &engine{
		s:           s,
		w:           s.w,
		sh:          s.sh,
		exec:        s.exec,
		params:      s.params,
		pr:          s.pr,
		reqCtx:      ctx,
		ctx:         s.getCtx(),
		k:           s.k,
		incremental: !s.params.referenceEval,
	}
}

// canceled reports the run's context error, nil while the run may continue.
// Algorithms call it at iteration boundaries — cheap enough for the hot
// loops, frequent enough that a disconnected client aborts within one
// iteration rather than running the solve to completion.
func (e *engine) canceled() error {
	select {
	case <-e.reqCtx.Done():
		return e.reqCtx.Err()
	default:
		return nil
	}
}

// release returns the run's contexts to the session pool.
func (e *engine) release() {
	e.s.putCtx(e.ctx)
	for _, ctx := range e.borrowed {
		e.s.putCtx(ctx)
	}
	e.borrowed = nil
}

// workerPool returns n worker contexts for a parallel evaluation round,
// borrowing any missing ones from the session pool and keeping them for the
// rest of the run.
func (e *engine) workerPool(n int) []*workerCtx {
	for len(e.borrowed) < n {
		e.borrowed = append(e.borrowed, e.s.getCtx())
	}
	return e.borrowed[:n]
}

// bundleVector builds a bundle's interested-consumer vector. The fast path
// reduces over the session's stripe executor — the local shard's columnar
// stripes by default, a remote worker fleet under a distributed solver; the
// reference path rescans the flat postings (the seed implementation the
// equivalence tests diff against).
func (e *engine) bundleVector(items []int, theta float64, dstIDs []int, dstVals []float64) ([]int, []float64) {
	if e.incremental {
		return e.exec.BundleVector(e.reqCtx, items, theta, dstIDs, dstVals)
	}
	return e.w.BundleVector(items, theta, dstIDs, dstVals)
}

// bundleVectors builds every set's vector with one executor call, so a
// distributed session pays one scatter round for a whole lineup; the
// reference path rescans the flat postings set by set.
func (e *engine) bundleVectors(sets [][]int, thetas []float64) ([][]int, [][]float64) {
	if e.incremental {
		return e.exec.BundleVectors(e.reqCtx, sets, thetas)
	}
	ids, vals := make([][]int, len(sets)), make([][]float64, len(sets))
	for k, items := range sets {
		ids[k], vals[k] = e.w.BundleVector(items, thetas[k], nil, nil)
	}
	return ids, vals
}

// buildSingletons prices every item as a one-item node — the session index
// NewSolver amortizes across solves. Items are independent, so the build is
// farmed to the configured worker count in contiguous chunks; each worker
// prices its items in a private context and writes disjoint slots, keeping
// the result identical to the serial order for any parallelism.
func (e *engine) buildSingletons() []*node {
	items := e.w.Items()
	nodes := make([]*node, items)
	workers := e.params.parallelism()
	if workers > items {
		workers = items
	}
	if workers <= 1 || items < minParallelJobs {
		for i := range nodes {
			nodes[i] = e.buildSingleton(e.ctx, i)
		}
		return nodes
	}
	ws := e.workerPool(workers)
	chunk := items/(workers*8) + 1
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(ctx *workerCtx) {
			defer wg.Done()
			for {
				end := int(cursor.Add(int64(chunk)))
				start := end - chunk
				if start >= items {
					return
				}
				if end > items {
					end = items
				}
				for i := start; i < end; i++ {
					nodes[i] = e.buildSingleton(ctx, i)
				}
			}
		}(ws[w])
	}
	wg.Wait()
	return nodes
}

// buildSingleton prices item i as a one-item node in the given context.
// Singletons always build from the local shard, never the stripe executor:
// the session build runs on the node that holds the matrix anyway, a remote
// fan-out would only add one round-trip per item for identical values, and
// a distributed executor may not be fully wired until the session exists
// (the cluster coordinator cuts its worker spans from this session's
// shard).
func (e *engine) buildSingleton(ctx *workerCtx, i int) *node {
	n := &node{items: []int{i}, fresh: true, id: e.s.lin.newIDs(1)}
	// θ never applies to a single item: Eq. 1 degenerates to the raw WTP.
	if e.incremental {
		n.ids, n.vals = e.sh.BundleVector(n.items, 0, nil, nil)
	} else {
		n.ids, n.vals = e.w.BundleVector(n.items, 0, nil, nil)
	}
	obj := e.objective(n.items)
	n.uq = e.pr.PriceUtilityIn(ctx.psc, n.vals, obj)
	n.quote = n.uq.Quote
	n.revenue, n.profit, n.surplus, n.util = n.uq.Revenue, n.uq.Profit, n.uq.Surplus, n.uq.Utility
	n.unitC = obj.UnitCost
	if e.params.Strategy == Mixed {
		e.initState(n)
	}
	return n
}

// laterMemo returns the memo a later-round pricing pass consults: the
// lineage's, or none for the run-to-end variant (keepAll), whose
// non-gaining candidates it does not hold.
func (e *engine) laterMemo(keepAll bool) verdicts {
	if keepAll {
		return nil
	}
	return &e.s.lin.memo
}

// singletons returns this run's working copies of the session's singleton
// prototypes: fresh node headers sharing the cached vectors and state
// read-only, so concurrent runs never observe each other's fresh/dead
// bookkeeping.
func (e *engine) singletons() []*node {
	nodes := make([]*node, len(e.s.protos))
	for i, p := range e.s.protos {
		n := *p
		n.fresh = true
		n.dead = false
		nodes[i] = &n
	}
	return nodes
}
