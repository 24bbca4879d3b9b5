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

// pairResult is a priced candidate merge: the quote evalMerge priced it at,
// its utility gain and the identity the merged node takes (see lineage).
// It carries no node; merge builds one from the quote when an algorithm
// takes the pair.
type pairResult struct {
	u, v int
	q    pricing.UtilityQuote
	gain float64
	id   ident
}

// workerCtx is one evaluation thread's private scratch: the merge buffers
// and the pricing scratch (the Pricer itself is stateless and shared).
// Contexts live in the session's pool and are borrowed per run.
type workerCtx struct {
	sc  *mergeScratch
	psc *pricing.Scratch
}

// evalPairs returns the candidates among jobs, in job order. A job whose
// verdict the memo m (nil for none) holds is served from it; the rest are
// priced concurrently and handed to m's store. Work is distributed in
// contiguous chunks claimed off an atomic cursor, so workers synchronize a
// handful of times per batch instead of once per job. Results are keyed by
// job index, making the output deterministic regardless of worker count.
// Infeasible candidates are dropped; non-gaining ones too, unless keepAll
// (the greedy run-to-end variant needs every mergeable pair). Each priced
// candidate gets a new identity for the node it would merge into, except
// under keepAll: the run-to-end variant bypasses the memos, so its nodes
// need none. The price_candidates span records the pass's pairs (served plus priced), the
// verdicts the memo served (reused) and the candidates kept (gaining).
func (e *engine) evalPairs(nodes []*node, jobs []pairJob, keepAll bool, m verdicts) []pairResult {
	if len(jobs) == 0 {
		return nil
	}
	_, sp := obs.StartSpan(e.reqCtx, "price_candidates")
	sp.Tag("pairs", len(jobs))
	defer sp.End()
	res := make([]pairResult, len(jobs))
	st := make([]jobState, len(jobs))
	reused := 0
	if m != nil {
		reused = m.lookup(nodes, jobs, res, st)
	}
	sp.Tag("reused", reused)
	e.price(nodes, jobs, keepAll, res, st, len(jobs)-reused)
	if !keepAll {
		e.newIDs(res, st)
	}
	if m != nil {
		// A canceled pass leaves jobs unpriced; store skips them.
		m.store(nodes, jobs, res, st)
	}
	out := res[:0]
	for i, r := range res {
		if st[i].kept() {
			out = append(out, r)
		}
	}
	sp.Tag("gaining", len(out))
	return out
}

// newIDs gives each candidate the pass priced a new identity from the
// session's lineage, or leaves it none once the lineage has run out.
func (e *engine) newIDs(res []pairResult, st []jobState) {
	fresh := 0
	for _, s := range st {
		if s == accepted {
			fresh++
		}
	}
	if id := e.s.lin.newIDs(fresh); id != 0 {
		for i, s := range st {
			if s == accepted {
				res[i].id = id
				id++
			}
		}
	}
}

// price prices the jobs no memo served (st unpriced; misses of them),
// setting st to accepted or rejected and res for a candidate. A done
// request context stops it early, leaving the rest unpriced; the caller's
// next canceled() check discards the partial pass.
func (e *engine) price(nodes []*node, jobs []pairJob, keepAll bool, res []pairResult, st []jobState, misses int) {
	one := func(ctx *workerCtx, idx int) {
		j := jobs[idx]
		if q, gain, ok := e.evalMerge(ctx, nodes[j.u], nodes[j.v], keepAll); ok {
			res[idx] = pairResult{u: j.u, v: j.v, q: q, gain: gain}
			st[idx] = accepted
		} else {
			st[idx] = rejected
		}
	}
	workers := e.params.parallelism()
	if workers > misses {
		workers = misses
	}
	if workers <= 1 || misses < minParallelJobs {
		for idx := range jobs {
			if st[idx] != unpriced {
				continue
			}
			if e.reqCtx.Err() != nil {
				return
			}
			one(e.ctx, idx)
		}
		return
	}
	ws := e.workerPool(workers)
	chunk := len(jobs)/(workers*8) + 1
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(ctx *workerCtx) {
			defer wg.Done()
			for {
				if e.reqCtx.Err() != nil {
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
					if st[idx] == unpriced {
						one(ctx, idx)
					}
				}
			}
		}(ws[w])
	}
	wg.Wait()
}
