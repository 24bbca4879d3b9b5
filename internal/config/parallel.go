package config

import (
	"runtime"
	"sync"
	"sync/atomic"

	"bundling/internal/obs"
	"bundling/internal/pricing"
)

// parallelism resolves the effective worker count.
func (p Params) parallelism() int {
	if p.Parallelism > 0 {
		return p.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// minParallelJobs is the batch size below which spawning workers costs more
// than it saves; smaller batches (e.g. the late iterations of GreedyMerge,
// when few live bundles remain) are priced serially.
const minParallelJobs = 8

// pairJob is one candidate merge to evaluate.
type pairJob struct {
	u, v int
}

// pairResult is a priced candidate merge: the quote evalMerge priced it at
// and its utility gain. It carries no node; merge builds one from the quote
// when an algorithm takes the pair.
type pairResult struct {
	u, v int
	q    pricing.UtilityQuote
	gain float64
}

// workerCtx is one evaluation thread's private scratch: the merge buffers
// and the pricing scratch (the Pricer itself is stateless and shared).
// Contexts live in the session's pool and are borrowed per run.
type workerCtx struct {
	sc  *mergeScratch
	psc *pricing.Scratch
}

// evalPairs prices every candidate pair concurrently. Work is distributed
// in contiguous chunks claimed off an atomic cursor, so workers synchronize
// a handful of times per batch instead of once per job. Results are keyed
// by job index, making the output deterministic regardless of worker count.
// Infeasible candidates are dropped; non-gaining ones too, unless keepAll
// (the greedy run-to-end variant needs every mergeable pair). The
// price_candidates span records the pairs priced and the candidates kept
// (gaining).
func (e *engine) evalPairs(nodes []*node, jobs []pairJob, keepAll bool) []pairResult {
	if len(jobs) == 0 {
		return nil
	}
	_, sp := obs.StartSpan(e.reqCtx, "price_candidates")
	sp.Tag("pairs", len(jobs))
	defer sp.End()
	workers := e.params.parallelism()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 || len(jobs) < minParallelJobs {
		out := make([]pairResult, 0, len(jobs))
		for _, j := range jobs {
			if e.reqCtx.Err() != nil {
				// Abort the batch; the caller notices at its next canceled()
				// check, so partial results are never acted on.
				return out
			}
			if q, gain, ok := e.evalMerge(e.ctx, nodes[j.u], nodes[j.v], keepAll); ok {
				out = append(out, pairResult{u: j.u, v: j.v, q: q, gain: gain})
			}
		}
		sp.Tag("gaining", len(out))
		return out
	}
	ws := e.workerPool(workers)
	results := make([]pairResult, len(jobs))
	kept := make([]bool, len(jobs))
	chunk := len(jobs)/(workers*8) + 1
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(ctx *workerCtx) {
			defer wg.Done()
			for {
				if e.reqCtx.Err() != nil {
					// Stop claiming chunks; the caller's next canceled()
					// check discards the partial batch.
					return
				}
				end := int(cursor.Add(int64(chunk)))
				start := end - chunk
				if start >= len(jobs) {
					return
				}
				if end > len(jobs) {
					end = len(jobs)
				}
				for idx := start; idx < end; idx++ {
					j := jobs[idx]
					if q, gain, ok := e.evalMerge(ctx, nodes[j.u], nodes[j.v], keepAll); ok {
						results[idx] = pairResult{u: j.u, v: j.v, q: q, gain: gain}
						kept[idx] = true
					}
				}
			}
		}(ws[w])
	}
	wg.Wait()
	out := results[:0]
	for i, r := range results {
		if kept[i] {
			out = append(out, r)
		}
	}
	sp.Tag("gaining", len(out))
	return out
}
